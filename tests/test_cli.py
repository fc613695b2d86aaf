"""End-to-end tests of the command-line surface and the disk cache."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from affschur import affperm, asymptotic, cli, hecke, klcache, parabolic
from affschur.affperm import MAX_THETA_WINDOW, from_word
from affschur.cli import MAX_PERIOD, main
from affschur.parabolic import compositions, matrix_of
from affschur.klcache import KLCache, scan_stats
from affschur.laurent import LaurentPoly

_M = json.dumps({"n": 2, "entries": [[1, 2, 1], [2, 1, 1]]})
_WINDOW = ("--n", "2", "--r", "2", "--L", "2", "--omega-window=-1:1")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, (code, out, err)
    return json.loads(out)


def test_length_and_word(capsys):
    out = run_json(capsys, "length", "--w", "3,0")
    assert out["l"] == 2 and out["omega_degree"] == 0
    out = run_json(capsys, "word", "--w", "2,1^2")
    assert out == {"omega": 2, "word": [1], "l": 1, "provenance": "exact"}


def test_bruhat_and_klpoly(capsys):
    assert run_json(capsys, "bruhat", "--y", "0,3", "--w", "3,0")["leq"] is True
    out = run_json(capsys, "klpoly", "--r", "2", "--y", "2,1", "--w", "3,0")
    assert out["P"] == {"0": "1"}


def test_cbasis_window_and_word_fallback(capsys):
    # a valid window parses as a window; otherwise generator indices are a word
    out = run_json(capsys, "cbasis", "--w", "0,3")
    assert out["terms"][0]["coeff"] == {"-1": "1"}
    word = run_json(capsys, "cbasis", "--r", "2", "--w", "0,1,0")
    assert {tuple(t["window"]) for t in word["terms"]} == {
        (1, 2), (0, 3), (2, 1), (3, 0), (-1, 4), (-2, 5)
    }


def test_hmul_and_hstruct(capsys):
    out = run_json(capsys, "hmul", "--a", "0,3", "--b", "0,3")
    assert out == {
        "basis": "T",
        "r": 2,
        "terms": [
            {"window": [1, 2], "coeff": {"2": "1"}},
            {"window": [0, 3], "coeff": {"0": "-1", "2": "1"}},
        ],
    }
    out = run_json(capsys, "hstruct", "--x", "0,3", "--y", "0,3", "--z", "0,3")
    assert out["h"] == {"-1": "1", "1": "1"}


def test_cosets_matrix_triple_roundtrip(capsys):
    out = run_json(capsys, "cosets", "--lam", "2,0", "--mu", "2,0", "--w", "0,3")
    assert out["min"] == [0, 3] and out["size"] == 4 and out["plus"] == [4, -1]
    mat = run_json(capsys, "matrix", "--lam", "1,1", "--mu", "1,1", "--w", "0,3")
    assert mat["entries"] == [[1, 0, 1], [2, 3, 1]] and mat["d_A"] == 1
    trip = run_json(capsys, "triple", "--A", json.dumps(mat := {"n": 2, "entries": mat["entries"]}))
    assert trip["w"] == [0, 3] and trip["lam"]["parts"] == [1, 1]


def test_theta_and_gstruct(capsys):
    A = json.dumps({"n": 2, "entries": [[1, 2, 1], [2, 1, 1]]})
    out = run_json(capsys, "theta", "--A", A)
    assert out["basis"] == "phihat" and len(out["terms"]) == 2
    g = run_json(capsys, "gstruct", "--A", A, "--B", A, "--C", A)
    assert g["g"] == {"-1": "1", "1": "1"}


def test_afn_and_gamma(capsys):
    out = run_json(capsys, "afn", "--r", "2", "--z", "0,3", "--L", "4")
    assert out["a"] == 1 and out["certified"] is True
    out = run_json(capsys, "gamma", "--x", "0,3", "--y", "0,3", "--z", "0,3")
    assert out["gamma"] == 1


def test_afn_uncertified_exit_code(capsys):
    # the word 0,1 at r = 3 has a-value strictly between the two ceilings
    code, out, err = run_cli(capsys, "gamma", "--r", "3", "--x", "0,1",
                             "--y", "0,1", "--z", "0,1", "--L", "2")
    assert code == 4
    assert "uncertified" in err


def test_dinv_and_jmul(capsys):
    out = run_json(capsys, "dinv", "--r", "2", "--L", "4")
    assert out["windows"] == [[1, 2], [0, 3], [2, 1]]
    out = run_json(capsys, "jmul", "--a", "0,3", "--b", "0,3")
    assert out["terms"] == [{"window": [0, 3], "coeff": {"0": "1"}}]


def test_phi_map(capsys):
    out = run_json(capsys, "phi-map", "--w", "1,2", "--L", "4")
    assert [t["window"] for t in out["terms"]] == [[1, 2], [0, 3], [2, 1]]


def test_cells_and_lowest_cell(capsys):
    out = run_json(capsys, "cells", "--r", "2", "--L", "3", "--hecke")
    assert len(out["cells"]) == 3
    out = run_json(capsys, "lowest-cell", "--n", "2", "--r", "2", "--L", "3",
                   "--omega-window=-1:1")
    assert out["extra"]["left_cell_count"] == 4


def test_qsuite_small(capsys):
    out = run_json(capsys, "qsuite", "--n", "1", "--r", "2", "--L", "3",
                   "--omega-window=-1:1")
    assert out["ok"] is True
    assert out["results"]["Q12"] == "absent-in-paper"


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "gamma", "--x", "0,3")
    assert code == 1
    code, _, _ = run_cli(capsys, "dinv")
    assert code == 1
    code, _, err = run_cli(capsys, "length", "--w", "1,3")  # repeated residue
    assert code == 2
    for window in ("1:2:3", "2:1", "a:1", "5"):
        code, _, err = run_cli(capsys, "length", "--w", "3,0", f"--omega-window={window}")
        assert code == 1 and err.startswith("usage error:"), (window, err)


@pytest.mark.parametrize("argv", [
    ("lowest-cell", "--n", "0", "--r", "2"),
    ("qsuite", "--n", "0", "--r", "2", "--L", "1"),
    ("cells", "--n", "-1", "--r", "2", "--L", "1"),
    ("dinv", "--n", "0", "--r", "2"),
])
def test_nonpositive_n_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "", (code, err)
    assert err.startswith("domain error:"), err


_J_SCHUR_WINDOW = '{"ring":"J_Schur","r":2,"n":2,"terms":[{"window":[0,3]}]}'
_J_W_N2 = '{"ring":"J_W","r":2,"n":2,"terms":[{"window":[0,3]}]}'
_M_R3 = '{"ring":"J_Schur","r":3,"n":2,"terms":[{"matrix":[[1,2,1],[2,1,1]]}]}'


@pytest.mark.parametrize("argv", [
    # a coefficient that is an integer or a list, not an object
    ("hmul", "--a", '{"r":2,"terms":[{"window":[0,3],"coeff":1}]}', "--b", "0,3"),
    ("jmul", "--a", '{"ring":"J_W","r":2,"terms":[{"window":[0,3],"coeff":[1]}]}', "--b", "0,3"),
    # a boolean coefficient
    ("hmul", "--a", '{"r":2,"terms":[{"window":[0,3],"coeff":{"0":true}}]}', "--b", "0,3"),
    ("jmul", "--a", '{"ring":"J_W","r":2,"terms":[{"window":[0,3],"coeff":{"0":true}}]}',
     "--b", "0,3"),
    # a key of the other ring, or a header the key does not live in
    ("jmul", "--a", _J_SCHUR_WINDOW, "--b", _J_SCHUR_WINDOW),
    ("jmul", "--a", '{"ring":"J_W","r":2,"n":2,"terms":[{"matrix":[[1,2,1],[2,1,1]]}]}',
     "--b", "0,3"),
    ("jmul", "--a", _M_R3, "--b", _M_R3),
    ("jmul", "--a", _M_R3.replace('"n":2', '"n":3'), "--b", "0,3"),
    # a J_W header with n != 0, with or without terms
    ("jmul", "--a", _J_W_N2, "--b", _J_W_N2),
    ("jmul", "--a", _J_W_N2.replace('{"window":[0,3]}', ""),
     "--b", _J_W_N2.replace('{"window":[0,3]}', "")),
    # a coefficient string that int() reads but to_json never writes
    ("hmul", "--a", '{"r":2,"terms":[{"window":[0,3],"coeff":{"0":"1_0"," 2":" 3 "}}]}',
     "--b", "2,1"),
])
def test_element_json_of_the_wrong_shape_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "", (code, out, err)
    assert len(err.splitlines()) == 1 and err.startswith(("input error:", "domain error:")), err


@pytest.mark.parametrize("argv", [
    ("triple", "--A", "[1,2]"),
    ("triple", "--A", '{"n":"x","entries":[[1,0,1]]}'),
    ("length", "--w", '{"window":5}'),
    ("triple", "--A", '{"n":2,"entries":[[1,1,1.5],[2,2,0.5]]}'),
    ("length", "--w", '{"window":[1.0,2]}'),
    ("matrix", "--lam", '{"n":2,"parts":[2.0,0]}', "--mu", "1,1", "--w", "1,2"),
    ("triple", "--A", '{"n":2,"entries":[[1,"1",1],[2,2,1]]}'),
    ("length", "--w", '{"window":[1,"2"]}'),
    ("length", "--w", '{"window":[1,true]}'),
    ("matrix", "--lam", '{"n":2,"parts":["2",0]}', "--mu", "1,1", "--w", "1,2"),
    ("hmul", "--a", '{"r":"2","terms":[]}', "--b", "0,3"),
])
def test_malformed_json_shape_is_input_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("input error:"), (code, err)


@pytest.mark.parametrize("argv", [
    ("length", "--w", '{"r":3000,"word":[]}'),
    ("length", "--w", f'{{"r":{MAX_PERIOD + 1},"word":[0]}}'),
    ("length", "--r", str(MAX_PERIOD + 1), "--w", "0,1"),
    ("length", "--w", ",".join(str(i) for i in range(1, MAX_PERIOD + 2))),
    ("triple", "--A", '{"n":1,"entries":[[1,1,1000000]]}'),
])
def test_period_above_bound_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("input error:"), (code, err)
    assert f"exceeds the supported maximum {MAX_PERIOD}" in err


def test_period_at_bound_is_accepted(capsys):
    out = run_json(capsys, "length", "--w", f'{{"r":{MAX_PERIOD},"word":[0]}}')
    assert out["l"] == 1 and len(out["window"]) == MAX_PERIOD


@pytest.mark.parametrize("argv", [
    ("cells", "--hecke", "--L", "0"),
    ("dinv", "--L", "1"),
    ("lowest-cell", "--n", "2"),
    ("qsuite", "--n", "2"),
])
@pytest.mark.parametrize("form", ["flag", "env"])
def test_enumeration_period_above_bound_is_input_error(capsys, monkeypatch, argv, form):
    # --r is checked before any command enumerates a window of that period
    def fail(*args, **kwargs):
        raise AssertionError("enumerated before the period was checked")

    for module, name in ((affperm, "ball"), (asymptotic, "distinguished_involutions"),
                         (asymptotic, "lowest_cell"), (asymptotic, "q_suite")):
        monkeypatch.setattr(module, name, fail)
    if form == "flag":
        argv += ("--r", str(MAX_PERIOD + 1))
    else:
        monkeypatch.setenv("AFFSCHUR_R", str(MAX_PERIOD + 1))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("input error:"), (code, err)
    assert f"exceeds the supported maximum {MAX_PERIOD}" in err


@pytest.mark.parametrize("argv", [
    ("lowest-cell", "--n", "100000", "--r", "2", "--L", "1"),
    ("cells", "--n", "2", "--r", "2", "--L", "1", "--omega-window=-100000:100000"),
])
def test_enumeration_window_above_bound_is_input_error(argv):
    # refused before anything is enumerated, so each exits within seconds
    proc = subprocess.run([sys.executable, "-m", "affschur.cli", *argv],
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("input error:") and proc.stderr.count("\n") == 1
    assert f"exceeds the supported maximum {MAX_THETA_WINDOW}" in proc.stderr


@pytest.mark.parametrize("n,r,window,inside", [
    (4, 2, None, True),  # the (4,2) Q-suite over rho-powers -2..2: 500
    (3, 3, None, True),  # 700
    (2, 2, (-2, 2), True),
    (1, 2, (0, MAX_THETA_WINDOW - 1), True),
    (1, 2, (0, MAX_THETA_WINDOW), False),
    (MAX_THETA_WINDOW + 1, 1, (0, 0), False),
    (10**100, MAX_PERIOD, None, False),
])
def test_enumeration_window_bound(n, r, window, inside):
    cfg = {"n": n, "r": r, "L": 1, "omega_window": window}
    if inside:
        assert cli._theta_window(cfg) == (n, r, 1, window)
    else:
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            cli._theta_window(cfg)


@pytest.mark.parametrize("argv", [
    ("afn", "--r", "2", "--z", "0,3"),
    ("dinv", "--r", "2"),
    ("cells", "--hecke", "--r", "2"),
])
@pytest.mark.parametrize("form", ["flag", "env"])
def test_negative_length_bound_is_usage_error(capsys, monkeypatch, argv, form):
    if form == "flag":
        code, out, err = run_cli(capsys, *argv, "--L", "-1")
    else:
        monkeypatch.setenv("AFFSCHUR_L", "-1")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("usage error:"), (code, err)
    assert "L=-1 is negative" in err
    assert run_json(capsys, *argv, "--L", "0")  # the bound itself is accepted


def test_program_fault_is_not_an_input_error(capsys, monkeypatch):
    # only the parsers turn a TypeError into exit 2; one raised by a command propagates
    def broken(A):
        raise TypeError("fault inside a command")

    monkeypatch.setattr(parabolic, "d_A_coxeter", broken)
    with pytest.raises(TypeError, match="fault inside a command"):
        main(["triple", "--A", _M])


@pytest.mark.parametrize("x", ["1,2", "2,1"])
def test_hstruct_mismatched_periods_is_domain_error(capsys, x):
    code, out, err = run_cli(capsys, "hstruct", "--x", x, "--y", "2,1,3", "--z", "2,1,3")
    assert code == 2 and out == "" and err.startswith("domain error:"), (code, err)
    assert "periods 2 and 3 differ" in err


@pytest.mark.parametrize("command", ["matrix", "cosets"])
def test_mismatched_compositions_are_domain_errors(capsys, command):
    code, _, err = run_cli(capsys, command, "--lam", "1,1", "--mu", "2,1", "--w", "1,2")
    assert code == 2
    assert "composition sizes and permutation period differ" in err
    code, _, err = run_cli(capsys, command, "--lam", "2,0", "--mu", "1,0,1", "--w", "1,2")
    assert code == 2 and err.startswith("domain error:"), err


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("AFFSCHUR_R", "2")
    out = run_json(capsys, "klpoly", "--y", "2,1", "--w", "0,1,0")
    assert out["P"] == {"0": "1"}  # word fallback used env r
    monkeypatch.setenv("AFFSCHUR_FORMAT", "pretty")
    code, out, _ = run_cli(capsys, "length", "--w", "0,3")
    assert code == 0 and out.startswith("{\n")
    # flags win over env
    code, out, _ = run_cli(capsys, "length", "--w", "0,3", "--format", "json")
    assert code == 0 and out.startswith('{"')
    # malformed numeric settings are usage errors, not tracebacks
    for name, raw in (("AFFSCHUR_L", "abc"), ("AFFSCHUR_OMEGA_WINDOW", "1:2:3")):
        monkeypatch.setenv(name, raw)
        code, _, err = run_cli(capsys, "length", "--w", "3,0")
        assert code == 1 and err.startswith("usage error:"), (name, err)
        monkeypatch.delenv(name)


def test_unknown_format_rejected_before_computing(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the Q-suite ran before the format was checked")

    monkeypatch.setattr(asymptotic, "q_suite", fail)
    monkeypatch.setenv("AFFSCHUR_FORMAT", "xml")
    code, out, err = run_cli(capsys, "qsuite", *_WINDOW)
    assert code == 1 and out == ""
    assert err.strip() == "usage error: unknown output format 'xml'"


def test_output_formats_are_stable(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "cbasis", "--w", "3,0")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    code, out, _ = run_cli(capsys, "cbasis", "--w", "3,0", "--format", "csv")
    assert code == 0 and out.startswith("key,value")


def test_cache_cold_then_warm(tmp_path, capsys):
    path = str(tmp_path / "kl.jsonl")
    code, out1, err1 = run_cli(capsys, "cbasis", "--r", "2", "--w", "0,1,0", "--cache", path)
    assert code == 0
    stats1 = json.loads(err1.strip().splitlines()[-1])["cache"]
    assert stats1["appended"] > 0
    code, out2, err2 = run_cli(capsys, "cbasis", "--r", "2", "--w", "0,1,0", "--cache", path)
    assert code == 0 and out2 == out1
    stats2 = json.loads(err2.strip().splitlines()[-1])["cache"]
    assert stats2["appended"] == 0
    # warm run sees every record (fresh loads or in-memory hits)
    assert stats2["loaded"] + stats2["duplicates"] >= stats1["appended"]
    memo = stats2["memo"]
    assert 1 <= memo["distinct_polys"] <= memo["entries"]
    assert memo["shared_elements"] >= 4


# Both halves run in fresh processes, so the memo holds exactly what each
# computed or loaded.  _SAVE_BALLS computes all C_w on the balls named "r,L",
# prints the memo records, waits for the file named by its second argument
# unless that is "-", then saves the memo into the file named by its first.
_SAVE_BALLS = """
import json, os, sys, time
from affschur import affperm, hecke, klcache
path, go, *balls = sys.argv[1:]
for ball in balls:
    for w in affperm.ball(*map(int, ball.split(","))):
        hecke.c_elt(w)
print(json.dumps([[w.r, y.window, w.window, p.to_json()] for (y, w), p in hecke.kl_memo().items()]),
      flush=True)
while go != "-" and not os.path.exists(go):
    time.sleep(0.001)
klcache.KLCache(path).save_new()
"""
_LOAD = """
import json, sys
from affschur import affperm, hecke, klcache
from affschur.affperm import AffPerm
cache = klcache.KLCache(sys.argv[1]).load()
items = sorted([w.r, y.window, w.window, p.to_json()] for (y, w), p in hecke.kl_memo().items())
canonical = all(AffPerm(x.r, x.window) is x for key in hecke.kl_memo() for x in key)
for w in affperm.ball(3, 5):
    hecke.c_elt(w)
print(json.dumps([items, canonical, cache.corrupt, hecke.kl_memo_stats()["computed"]]))
"""


def test_saved_memo_loads_back_record_for_record(tmp_path):
    path = str(tmp_path / "kl.jsonl")
    saved = subprocess.run([sys.executable, "-c", _SAVE_BALLS, path, "-", "3,5"],
                           capture_output=True, text=True)
    assert saved.returncode == 0, saved.stderr
    loaded = subprocess.run([sys.executable, "-c", _LOAD, path], capture_output=True, text=True)
    assert loaded.returncode == 0, loaded.stderr
    items, canonical, corrupt, computed = json.loads(loaded.stdout)
    assert items == sorted(json.loads(saved.stdout)) and len(items) > 700
    assert canonical and corrupt == 0 and computed == 0


def _file_records(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines, [[rec["r"], rec["y"], rec["w"], rec["P"]] for rec in map(json.loads, lines)]


def test_concurrent_saves_interleave_whole_lines(tmp_path):
    path, go = str(tmp_path / "kl.jsonl"), str(tmp_path / "go")
    procs = [subprocess.Popen([sys.executable, "-c", _SAVE_BALLS, path, go, *balls],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for balls in (("3,6",), ("4,4", "3,4"))]
    try:
        memos = [json.loads(proc.stdout.readline()) for proc in procs]
        open(go, "w").close()  # both memos are built: release the two saves at once
        for proc in procs:
            assert proc.wait(timeout=60) == 0, proc.stderr.read()
    finally:
        for proc in procs:
            proc.kill()
            proc.communicate()
    union = sorted({json.dumps(rec) for memo in memos for rec in memo})
    _, records = _file_records(path)  # every line parses
    assert sorted({json.dumps(rec) for rec in records}) == union
    loaded = subprocess.run([sys.executable, "-c", _LOAD, path], capture_output=True, text=True)
    assert loaded.returncode == 0, loaded.stderr
    items, canonical, corrupt, computed = json.loads(loaded.stdout)
    assert sorted(json.dumps(rec) for rec in items) == union
    assert canonical and corrupt == 0 and computed == 0


# Loads a cache, then prints what three reads give, "violation" where one
# raises KLInvariantViolation: P_{y,w} for the (y, w) given, whether every C_w
# of ball(3,7) is bar-invariant, and (if they all are) a nonzero record with
# y not <= w for a full row.
_LOAD_AND_BUILD = """
import sys
from affschur import affperm, hecke, klcache
from affschur.errors import KLInvariantViolation
from affschur.laurent import ONE
klcache.KLCache(sys.argv[1]).load()
y, w = (affperm.AffPerm(3, tuple(map(int, a.split(",")))) for a in sys.argv[2:4])


def outcome(step):
    try:
        return step()
    except KLInvariantViolation:
        return "violation"


def build():
    return all(hecke.h_bar(c) == c for c in map(hecke.c_elt, affperm.ball(3, 7)))


def insert():
    top = affperm.ball(3, 7)[-1]
    hecke.kl_memo_insert(next(y for y in affperm.ball(3, 6) if y not in hecke._KL[top]), top, ONE)
    return "inserted"


first, built = outcome(lambda: hecke.kl_poly(y, w).is_zero()), outcome(build)
print(first, built, outcome(insert) if built is True else "-")
"""


@pytest.mark.parametrize("P,expected", [({"0": "1"}, ["violation", "violation", "-"]),
                                        ({}, ["True", "True", "violation"])],
                         ids=["nonzero", "zero"])
def test_loaded_records_with_y_not_below_w(tmp_path, P, expected):
    # each row w of ball(3,5) gains a record P_{y,w} for a y in [e, s_i w] but
    # not in [e, w], shorter than w (so P = 1 passes the load's degree bound):
    # the kernel reads it when it fills the row of s_i w
    path = str(tmp_path / "kl.jsonl")
    saved = subprocess.run([sys.executable, "-c", _SAVE_BALLS, path, "-", "3,5"],
                           capture_output=True, text=True)
    assert saved.returncode == 0, saved.stderr
    _, records = _file_records(path)
    bogus = []
    for window in dict.fromkeys(tuple(rec[2]) for rec in records):
        w = affperm.AffPerm(3, window)
        i = min(set(range(3)) - w.left_descents)
        above = affperm.bruhat_lower(affperm.generator(3, i) * w) - affperm.bruhat_lower(w)
        ys = sorted((y for y in above if y.length < w.length), key=lambda y: y.sort_key)
        if not ys:
            continue
        y = ys[0]
        bogus.append(json.dumps({"P": P, "r": 3, "w": list(window), "y": list(y.window)},
                                sort_keys=True, separators=(",", ":")))
    assert len(bogus) > 20
    assert scan_stats(path)["not_below_w"] == 0
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(bogus) + "\n")
    stats = scan_stats(path)
    assert stats["corrupt_lines_skipped"] == 0
    # cache-stats builds the lower ideal of each row with a nonzero record
    assert stats["not_below_w"] == (39 if P else 0)
    first = json.loads(bogus[0])
    built = subprocess.run([sys.executable, "-c", _LOAD_AND_BUILD, path,
                            ",".join(map(str, first["y"])), ",".join(map(str, first["w"]))],
                           capture_output=True, text=True, timeout=120)
    assert built.returncode == 0, built.stderr
    assert built.stdout.split() == expected
    if P:
        cli_run = subprocess.run([sys.executable, "-m", "affschur.cli", "cbasis", "--cache", path,
                                  "--r", "3", "--w", "0,1,2,0,1,2"], capture_output=True, text=True)
        assert cli_run.returncode == 3 and "verification failure" in cli_run.stderr


_TOP_UP = """
import json, sys
from affschur import affperm, hecke, klcache
for w in affperm.ball(3, 4):
    hecke.c_elt(w)
cache = klcache.KLCache(sys.argv[1]).load()
for w in affperm.ball(3, 5):
    hecke.c_elt(w)
appended = cache.save_new()
memo = [[w.r, y.window, w.window, p.to_json()] for (y, w), p in hecke.kl_memo().items()]
print(json.dumps([appended, cache.loaded, cache.duplicates, memo]))
"""


def test_save_appends_exactly_the_records_missing_from_the_file(tmp_path):
    # the file holds the memo of ball(3,3), part of what ball(3,4) computes
    path = str(tmp_path / "kl.jsonl")
    part = subprocess.run([sys.executable, "-c", _SAVE_BALLS, path, "-", "3,3"],
                          capture_output=True, text=True)
    assert part.returncode == 0, part.stderr
    before, _ = _file_records(path)
    topped = subprocess.run([sys.executable, "-c", _TOP_UP, path], capture_output=True, text=True)
    assert topped.returncode == 0, topped.stderr
    appended, loaded, duplicates, memo = json.loads(topped.stdout)
    assert (loaded, duplicates) == (0, len(before))
    lines, records = _file_records(path)
    assert lines[:len(before)] == before and len(lines) == len(before) + appended
    assert len(set(lines)) == len(lines)
    assert sorted(map(json.dumps, records)) == sorted(map(json.dumps, memo))


def test_save_writes_whole_rows_and_nothing_when_nothing_is_fresh(tmp_path, monkeypatch):
    writes = []

    class Recorder:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            writes.append(bytes(data))
            return self.fh.write(data)

        def __getattr__(self, name):
            return getattr(self.fh, name)

    monkeypatch.setattr(klcache, "open", lambda *a, **k: Recorder(open(*a, **k)), raising=False)
    path = tmp_path / "kl.jsonl"
    cache = KLCache(str(path))
    hecke.kl_poly(affperm.identity(2), from_word(2, 0, [0, 1, 0]))
    written = cache.save_new()  # a new handle has persisted nothing: the whole memo
    assert written == len(hecke.kl_memo()) > 0
    assert b"".join(writes) == path.read_bytes()
    rows = [{(rec["r"], tuple(rec["w"])) for rec in map(json.loads, chunk.splitlines())}
            for chunk in writes]
    assert all(chunk.endswith(b"\n") for chunk in writes)
    assert all(len(row) == 1 for row in rows) and len({*map(frozenset, rows)}) == len(writes)
    path.unlink()
    assert cache.save_new() == 0 and not path.exists()


@st.composite
def cache_records(draw):
    # a few polynomials shared by many records, as in a real memo: the zero
    # polynomial, negative coefficients and exponents >= 10 included
    polys = draw(st.lists(
        st.dictionaries(st.integers(-12, 12), st.integers(-12, 12), max_size=4).map(LaurentPoly),
        min_size=1, max_size=4,
    ))
    r = draw(st.integers(1, 4))
    window = st.lists(st.integers(-15, 15), min_size=r, max_size=r).map(tuple)
    return draw(st.lists(st.tuples(st.just(r), window, window, st.sampled_from(polys)),
                         max_size=12))


@settings(max_examples=80, deadline=None, database=None)
@given(cache_records())
@example([(2, (-3, 6), (0, 3), LaurentPoly({2: 1, 10: -2})), (2, (1, 2), (1, 2), LaurentPoly(0)),
          (2, (4, -1), (0, 3), LaurentPoly({2: 1, 10: -2}))])
def test_cache_lines_are_json_dumps_of_the_records(records):
    lines = klcache._lines(records)
    assert lines == [
        json.dumps({"r": r, "y": list(y), "w": list(w), "P": p.to_json()},
                   sort_keys=True, separators=(",", ":")) + "\n"
        for r, y, w, p in records
    ]
    # two calls through one shared text memo, as save_new makes one per row
    texts = {}
    half = len(records) // 2
    assert klcache._lines(records[:half], texts) + klcache._lines(records[half:], texts) == lines
    assert klcache._lines(records, texts) == lines
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kl.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines))
        assert list(klcache._records(path)) == [((r, y, w), p) for r, y, w, p in records]


def test_cache_truncated_line_and_stats(tmp_path, capsys):
    path = str(tmp_path / "kl.jsonl")
    c = KLCache(path)
    hecke.kl_poly(
        hecke.affperm.identity(2), hecke.affperm.from_word(2, 0, [0, 1, 0])
    )
    c.save_new()
    with open(path, "a") as fh:
        fh.write('{"r": 2, "y": [1, 2agg\n')
    stats = scan_stats(path)
    assert stats["corrupt_lines_skipped"] == 1
    assert stats["records"] == stats["unique"]
    out = run_json(capsys, "cache-stats", path)
    assert out["corrupt_lines_skipped"] == 1
    # a cache from a different r is ignored by key mismatch, not an error
    loaded = KLCache(path).load()
    assert loaded.corrupt == 1


def test_cache_record_breaking_the_degree_bound_is_rejected(tmp_path):
    # P_{e,w} = 1 + q^2 breaks the degree bound; the load rejects the record,
    # counts it, and the recursion computes the true P (fresh process: the
    # memo table is process-wide)
    path = tmp_path / "kl.jsonl"
    path.write_text('{"r":2,"y":[1,2],"w":[3,0],"P":{"0":"1","4":"1"}}\n')
    proc = subprocess.run(
        [sys.executable, "-m", "affschur.cli", "klpoly", "--r", "2", "--y", "1,2",
         "--w", "1,0,1", "--cache", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["P"] == {"0": "1"}
    stats = json.loads(proc.stderr.strip().splitlines()[-1])["cache"]
    assert (stats["loaded"], stats["corrupt_lines_skipped"]) == (0, 1)
    assert stats["memo"]["computed"] > 0


# A bad value put straight into the memo table, past the cache checks.
_BAD_MEMO = """
import sys
from affschur import cli, hecke
from affschur.affperm import AffPerm
from affschur.laurent import LaurentPoly
hecke.kl_memo_insert(AffPerm(2, (1, 2)), AffPerm(2, (3, 0)), LaurentPoly({0: 1, 4: 1}))
sys.exit(cli.main(["klpoly", "--r", "2", "--y", "1,2", "--w", "1,0,1"]))
"""


def test_kl_invariant_failure_exits_verify():
    proc = subprocess.run([sys.executable, "-c", _BAD_MEMO], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert "degree bounds" in proc.stderr and "Traceback" not in proc.stderr


_BAD_RECORDS = [
    '{"P":{"0":"5"},"r":2,"w":[0,3],"y":[0,3]}',  # P_{w,w} != 1
    '{"P":{"0":"1"},"r":2,"w":[1,1],"y":[1,1]}',  # repeats a residue
    '{"P":{"1":"1"},"r":2,"w":[0,3],"y":[1,2]}',  # odd exponent, P(0) != 1
    '{"P":{"0":"1"},"r":2,"w":[1,4],"y":[1,2]}',  # rho-degree 1
    '{"P":{"0":"2"},"r":2,"w":[0,3],"y":[1,2]}',  # constant term 2
    '{"P":{"-2":"1","0":"1"},"r":2,"w":[3,0],"y":[1,2]}',  # negative exponent
    '{"P":{"0":"1","2":"1"},"r":2,"w":[0,3],"y":[1,2]}',  # degree above l(w)-l(y)-1
    '{"P":{"0":"1"},"r":2,"w":[0,3],"y":[1,2],"x":1',  # truncated
    '{"P":[1],"r":2,"w":[0,3],"y":[1,2]}',  # P not an object
    '{"P":{"0":"1"},"r":2,"w":[0,3],"y":[1.0,2]}',  # float entry
    '{"P":{"0":"1"},"r":true,"w":[0,3],"y":[1,2]}',  # boolean period
    '{"P":{"0":true},"r":2,"w":[0,3],"y":[1,2]}',  # boolean coefficient
    '{"P":{"0":1.0},"r":2,"w":[0,3],"y":[1,2]}',  # float coefficient
    '{"P":{"0":" 1"},"r":2,"w":[0,3],"y":[1,2]}',  # a space in a coefficient
    '{"P":{"0":"1_0"},"r":2,"w":[0,3],"y":[1,2]}',  # an underscore in a coefficient
    '{"P":{"0":"1"},"r":3,"w":[0,3],"y":[1,2]}',  # period differs from the window
    # a valid pair in W' whose period is above MAX_PERIOD: l(w) would cost O(r^2)
    f'{{"P":{{"0":"1"}},"r":{MAX_PERIOD + 1},"w":{[2, 1, *range(3, MAX_PERIOD + 2)]},'
    f'"y":{list(range(1, MAX_PERIOD + 2))}}}'.replace(" ", ""),
]
_GOOD_RECORDS = [
    '{"P":{"0":"1"},"r":2,"w":[0,3],"y":[0,3]}',
    '{"P":{"0":"1"},"r":2,"w":[0,3],"y":[1,2]}',
    '{"r": 2, "y": [1, 2], "w": [3, 0], "P": {"0": "1"}}',  # another JSON spelling
    '{"P":{},"r":2,"w":[0,3],"y":[-1,4]}',  # zero records stay
]


def test_cache_boolean_coefficient_is_refused_after_an_equal_integer_one(tmp_path):
    # as dict keys True == 1, so the table of parsed polynomials must not serve one for the other
    path = tmp_path / "kl.jsonl"
    path.write_text('{"P":{"0":1},"r":2,"w":[0,3],"y":[1,2]}\n'
                    '{"P":{"0":true},"r":2,"w":[0,3],"y":[1,2]}\n')
    stats = scan_stats(str(path))
    assert (stats["records"], stats["corrupt_lines_skipped"]) == (1, 1)


def test_cache_load_rejects_implausible_records(tmp_path, capsys):
    path = tmp_path / "kl.jsonl"
    path.write_text("\n".join(_BAD_RECORDS + _GOOD_RECORDS) + "\n")
    stats = scan_stats(str(path))
    assert (stats["records"], stats["corrupt_lines_skipped"]) == (4, len(_BAD_RECORDS))
    code, out, err = run_cli(capsys, "klpoly", "--cache", str(path),
                             "--y", '{"r":2,"window":[0,3]}', "--w", '{"r":2,"window":[0,3]}')
    assert code == 0 and json.loads(out)["P"] == {"0": "1"}
    cache = json.loads(err.strip().splitlines()[-1])["cache"]
    assert cache["corrupt_lines_skipped"] == len(_BAD_RECORDS)
    assert cache["loaded"] + cache["duplicates"] == 4


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "affschur.cli", "length", "--w", "2,3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["l"] == 0


# The first 16 hex digits of the SHA-256 of stdout (the benchmark's digest
# scheme) for runs that exit 0: the CLI's output is byte-stable, so a refactor
# must leave every one of these unchanged.
GOLDEN_CLI = [
    (("cosets", "--lam", "2,0", "--mu", "2,0", "--w", "0,3"), "d5828a7c08fd6727"),
    (("cosets", "--lam", "1,2", "--mu", "2,1", "--w", "3,1,2^1"), "a112018b5c4a9c44"),
    (("matrix", "--lam", "1,1", "--mu", "1,1", "--w", "0,3"), "8d8704b1692108ae"),
    (("triple", "--A", '{"n":2,"entries":[[1,0,1],[2,3,1]]}'), "6ae8e090e388afff"),
    (("theta", "--A", _M, "--basis", "phi"), "37c89a42b6c26675"),
    (("gstruct", "--A", _M, "--B", _M, "--C", _M), "51592bb6d30671b0"),
    (("phi-map", "--A", _M), "9415fe269efc9833"),
    (("gamma", "--A", _M, "--B", _M, "--C", _M), "0a91f44ca27c9eb4"),
    (("dinv", "--n", "2", "--r", "2", "--L", "3", "--omega-window=-1:1"), "fb9c1f949c1c0d0c"),
    (("dinv", "--r", "2", "--L", "4"), "3667999d141d39b8"),
    (("cells", *_WINDOW, "--flavor", "LR"), "97f78c04d402c4be"),
    (("cells", *_WINDOW, "--flavor", "R"), "f9a08866fc1e1d87"),
    (("lowest-cell", "--n", "2", "--r", "2", "--L", "3", "--omega-window=-1:1"), "a8bc1fb333be1ad6"),
    (("qsuite", *_WINDOW), "ebd78614b2bdc0aa"),
    (("qsuite", "--n", "1", "--r", "2", "--L", "3", "--omega-window=-1:1"), "9e84780d3efa98c9"),
    (("cbasis", "--r", "2", "--w", "0,1,0", "--prime"), "7b9dc94644815294"),
    (("cbasis", "--w=-3,4,5", "--prime"), "0d7e09ebfa61ccfe"),
    (("cbasis", "--r", "3", "--w", "0,1,2,0,1^-1", "--prime"), "abafef2564d0a020"),
    (("length", "--r", "3", "--w", "5,0,1^1"), "037f764bc45721a1"),
    (("word", "--r", "3", "--w", "0,1,2,0"), "7242db1bc2dc45ec"),
    (("bruhat", "--r", "3", "--y", "0,1", "--w", "1,0,2"), "29444a1cbebc2b7b"),
    (("klpoly", "--r", "3", "--y", "1,2,3", "--w", "0,1,2,0"), "1f9f46a3b61bf686"),
    (("hmul", "--a", "0,3", "--b", "3,0"), "d8db3754eadc85d3"),
    (("hstruct", "--x", "0,3", "--y", "0,3", "--z", "0,3"), "9af3c4fb5e42ef0a"),
    (("afn", "--r", "3", "--z", "0,1,0", "--L", "2"), "cfd41da8ba75c7f0"),
    (("afn", "--r", "3", "--z", "0,1,0", "--L", "2", "--adaptive"), "cbbbdf6dddf8c7c7"),
    (("gamma", "--x", "0,3", "--y", "0,3", "--z", "0,3"), "0a91f44ca27c9eb4"),
    (("jmul", "--a", "0,3", "--b", "0,3"), "a284182633f968db"),
    (("phi-map", "--w", "0,3", "--L", "4"), "9ddcfb924a2aef51"),
    (("qsuite", "--n", "1", "--r", "2", "--L", "3", "--omega-window=-1:1", "--format", "csv"),
     "6164ccc3db6f392a"),
    (("lowest-cell", "--n", "2", "--r", "2", "--L", "3", "--omega-window=-1:1",
      "--format", "pretty"), "876fdc3ac7a34734"),
    (("qsuite", "--n", "3", "--r", "2", "--L", "2", "--omega-window=-1:1"), "1fde440dc5fcd527"),
    # 18 of its 28 matrices are uncertified: Q11 checks 60 pairs and skips 30
    (("qsuite", "--n", "2", "--r", "3", "--L", "2"), "2403ce5aba203da4"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_CLI,
                         ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(GOLDEN_CLI)])
def test_golden_cli_stdout(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


# CLI fuzz: commands whose work is bounded by their input, fed small generated
# windows, compositions and matrices (r <= 4 for the coset listings), both as
# text and as JSON of any shape.  main must return an exit code in 0..4: an
# uncaught exception would also exit 1, so only an in-process call sees it.
_small = st.integers(-6, 6)
_junk = st.text(alphabet=',-^0123456789 x{}[]":', max_size=5)
_json_any = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.floats(-3, 4) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["r", "window", "word", "omega", "n", "parts", "entries"]),
                      kids, max_size=3),
    max_leaves=6,
)


def _text(parts, power=None):
    return ",".join(map(str, parts)) + ("" if power is None else f"^{power}")


def _argv(command, r_or_n, **values):
    flag = "--n" if command in ("matrix", "cosets") else "--r"
    argv = [command] + [f"--{k}={v}" for k, v in values.items()]
    return argv if r_or_n is None else argv + [f"{flag}={r_or_n}"]


_perm = st.one_of(
    st.builds(_text, st.lists(_small, max_size=4), st.none() | st.integers(-3, 3)),
    st.builds(json.dumps, st.fixed_dictionaries({"window": st.lists(_small, max_size=4)},
                                                optional={"r": st.integers(-1, 4)})),
    st.builds(json.dumps, st.fixed_dictionaries(
        {"r": st.integers(-1, 4), "word": st.lists(st.integers(-1, 4), max_size=6)},
        optional={"omega": st.integers(-3, 3)})),
    st.builds(json.dumps, _json_any),
    _junk,
)
_parts = st.lists(st.integers(-1, 2), max_size=3).filter(lambda p: sum(max(x, 0) for x in p) <= 4)
_comp = st.one_of(
    _parts.map(_text),
    st.builds(lambda n, p: json.dumps({"n": n, "parts": p}), st.integers(-1, 3), _parts),
    st.builds(json.dumps, _json_any),
    _junk,
)
_matrix = st.one_of(
    st.builds(lambda n, e: json.dumps({"n": n, "entries": e}), st.integers(-1, 3),
              st.lists(st.lists(st.integers(-1, 4), min_size=3, max_size=3).map(
                  lambda e: [e[0], e[1] - 2, min(e[2], 2)]), max_size=3)),
    st.builds(json.dumps, _json_any),
    _junk,
)
_opt = st.none() | st.integers(-1, 4)


@st.composite
def _coset_case(draw):
    """A well-formed (lam, w, mu) with r <= 4, so that some runs get past the parsers."""
    r = draw(st.integers(1, 4))
    comps = compositions(draw(st.integers(1, 3)), r)
    lam, mu = draw(st.sampled_from(comps)), draw(st.sampled_from(comps))
    word = draw(st.lists(st.integers(0, r - 1), max_size=5)) if r >= 2 else []
    return lam, from_word(r, draw(st.integers(-2, 2)), word), mu


def _coset_argv(command, case):
    lam, w, mu = case
    if command == "triple":
        return _argv("triple", None, A=json.dumps(matrix_of(lam, w, mu).to_json()))
    return _argv(command, None, lam=_text(lam.parts), mu=_text(mu.parts), w=_text(w.window))


_poly = st.one_of(
    st.dictionaries(st.integers(-3, 3).map(str), st.integers(-2, 2) | st.integers(-2, 2).map(str),
                    max_size=2),
    _json_any,
)
_entries = st.lists(st.tuples(st.integers(1, 2), st.integers(-1, 3), st.integers(0, 2)).map(list),
                    max_size=2)
_elt_term = st.one_of(
    st.fixed_dictionaries({"window": st.lists(st.integers(-2, 5), min_size=2, max_size=2)},
                          optional={"coeff": _poly}),
    st.fixed_dictionaries({"matrix": _entries}, optional={"coeff": _poly}),
    _json_any,
)


def _elt_argv(command, header, terms):
    """hmul or jmul of an element with itself: r <= 2 keeps the a-value scans of jmul small."""
    elt = json.dumps(dict(header, terms=terms))
    return [command, f"--a={elt}", f"--b={elt}"]


_elt_case = st.builds(
    _elt_argv,
    st.sampled_from(["hmul", "jmul"]),
    st.fixed_dictionaries({"r": st.integers(-1, 2)}, optional={
        "ring": st.sampled_from(["J_W", "J_Schur", "J"]), "n": st.integers(-1, 2),
        "basis": st.sampled_from(["T", "C", "x"])}),
    st.lists(_elt_term, max_size=2),
)

_fuzz_argv = st.one_of(
    _elt_case,
    st.builds(_argv, st.sampled_from(["length", "word"]), _opt, w=_perm),
    st.builds(_argv, st.just("bruhat"), _opt, y=_perm, w=_perm),
    st.builds(_argv, st.just("triple"), st.none(), A=_matrix),
    st.builds(_argv, st.sampled_from(["matrix", "cosets"]), _opt, lam=_comp, mu=_comp, w=_perm),
    st.builds(_coset_argv, st.sampled_from(["matrix", "cosets", "triple"]), _coset_case()),
)


# No explain phase: it traces every line of argparse and takes minutes on a failure.
@settings(max_examples=150, deadline=None, database=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(_fuzz_argv)
def test_cli_fuzz_exits_with_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert isinstance(code, int) and 0 <= code <= 4, (argv, code, err.getvalue())
