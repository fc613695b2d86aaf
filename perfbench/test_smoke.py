"""Smoke test of the benchmark itself, at toy sizes (a few seconds per case).

    python3 -m pytest -q perfbench/test_smoke.py

Toy sizes are ball(2,3), enumerate_theta(2,2,2,(0,0)) and the (1,2) L=2
Q-suite, recorded in reference.json next to the full sizes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ["kl-cold", "kl-warm", "schur-products", "asymptotic"]


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--sizes", "toy", "--seconds", "0.5", "--seed", "3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {name: unit for name, (unit, _) in expected.items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace and workload == "kl-warm":
        assert result["metrics"]["hecke.kl_computed"]["value"] == 0
        assert result["metrics"]["klcache.records_loaded"]["value"] > 0


def test_corrupted_reference_digest_raises_fail_frac(tmp_path):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    digests = reference["toy"]["kl-cold"]["digests"]
    key = sorted(digests)[0]
    digests[key] = "0" * 16
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    proc = bench("--workload", "kl-cold", "--reference", str(path))
    result = result_of(proc)
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert key in proc.stderr


def test_affschur_variables_do_not_reach_the_program(tmp_path, monkeypatch):
    # the CLI reads AFFSCHUR_* as defaults; a stray cache would change the work
    stray = tmp_path / "stray-kl.jsonl"
    monkeypatch.setenv("AFFSCHUR_CACHE", str(stray))
    monkeypatch.setenv("AFFSCHUR_FORMAT", "csv")
    result = result_of(bench("--workload", "asymptotic"))
    assert result["correct"] is True
    assert not stray.exists()


def test_all_prints_fail_frac_and_a_certified_frac():
    proc = bench("--workload", "all")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    for workload in WORKLOADS:
        metrics = {row[1]: (float(row[2]), row[3]) for row in rows if row[:1] == [workload]}
        assert set(metrics) >= set(END_TO_END) | {"fail_frac"}
        assert metrics["fail_frac"] == (0.0, "ratio")
    asym = {row[1]: row[2:] for row in rows if row[:1] == ["asymptotic"]}
    assert asym["a_certified_frac"][1] == "ratio"


def test_benchmark_json_lists_these_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "kl-cold", cwd=tmp_path,
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
