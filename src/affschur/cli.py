"""Command-line surface.

Every subcommand reads windows/words/matrices inline or as JSON, computes
exactly, and writes machine-readable output (json by default, csv or pretty
on request).  Output is byte-stable for fixed inputs and configuration:
canonical key ordering and canonical term ordering throughout.

Exit codes: 0 success; 1 usage error; 2 domain error (invalid window or
matrix); 3 verification failure (a payload with "ok": false, or a KL
invariant failed); 4 refusal to use uncertified data.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import affperm, asymptotic, hecke, klcache, parabolic, schur, verify
from .affperm import MAX_PERIOD, MAX_THETA_WINDOW, AffPerm
from .errors import (
    AffschurError,
    CacheIoError,
    KLInvariantViolation,
    UncertifiedAValue,
    UncertifiedBoundary,
    WindowExceeded,
)
from .hecke import HeckeElt
from .parabolic import Composition, PeriodicMatrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_UNCERTIFIED = 4

ENV_PREFIX = "AFFSCHUR_"

DEFAULTS = {"r": None, "n": None, "L": 4, "omega_window": None, "cache": None,
            "format": "json"}
FORMATS = ("json", "csv", "pretty")


class UsageError(Exception):
    pass


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))


def _setting(args, name: str, cast=None):
    """Precedence: explicit flag > environment variable > default."""
    val = getattr(args, name, None)
    if val is None:
        raw = _env(name)
        val = raw if raw is not None else DEFAULTS.get(name)
    if val is not None and cast is int and not isinstance(val, int):
        try:
            val = int(val)
        except ValueError:
            raise UsageError(f"{ENV_PREFIX}{name.upper()}={val!r} is not an integer") from None
    return val


def _require(cfg, *names) -> None:
    for name in names:
        if cfg.get(name) is None:
            raise UsageError(f"--{name} is required (flag or {ENV_PREFIX}{name.upper()})")


def parse_omega_window(raw) -> tuple[int, int] | None:
    if raw is None:
        return None
    try:
        lo, hi = (int(p) for p in raw.split(":"))
    except ValueError:
        raise UsageError(f"omega window {raw!r} is not lo:hi with integers") from None
    if lo > hi:
        raise UsageError(f"omega window {lo}:{hi} is not ordered")
    return (lo, hi)


def _not_an_integer(literal: str):
    raise ValueError(f"{literal} is not an integer")


def _check_period(r) -> None:
    if type(r) is not int:
        raise ValueError(f"period {r!r} is not an integer")
    if r > MAX_PERIOD:
        raise ValueError(f"period r={r} exceeds the supported maximum {MAX_PERIOD}")


def _theta_window(cfg) -> tuple:
    """(n, r, L, omega window) of a command that enumerates a matrix window, checked
    before it enumerates: C(n + r - 1, r)^2 composition pairs times the rho-powers
    may be at most MAX_THETA_WINDOW.  C(n + r - 1, r) >= n, so a large n is
    refused before the binomial is computed."""
    _require(cfg, "n", "r")
    n, r, omega = cfg["n"], cfg["r"], cfg["omega_window"]
    lo, hi = omega or (-r, r)
    if n >= 1 and r >= 1 and (n > MAX_THETA_WINDOW or
                              math.comb(n + r - 1, r) ** 2 * (hi - lo + 1) > MAX_THETA_WINDOW):
        raise ValueError(f"the window of n={n}, r={r} over rho-powers {lo}:{hi} exceeds the "
                         f"supported maximum {MAX_THETA_WINDOW} (composition pairs times "
                         "rho-powers)")
    return n, r, cfg["L"], omega


def _from_json(build, spec: str):
    """build(obj) for the JSON in spec.  Every number must be an integer, and a value
    of the wrong shape (a TypeError in build) is bad input, not a program fault."""
    obj = json.loads(spec, parse_float=_not_an_integer, parse_constant=_not_an_integer)
    try:
        out = build(obj)
    except TypeError as exc:
        raise ValueError(f"malformed input: {exc}") from None
    _check_period(out.r)
    return out


def _perm_from_json(obj: dict) -> AffPerm:
    if "window" in obj:
        return AffPerm(obj.get("r", len(obj["window"])), tuple(obj["window"]))
    _check_period(obj["r"])  # before from_word builds windows of that size
    return affperm.from_word(obj["r"], obj.get("omega", 0), obj.get("word", ()))


def parse_perm(spec: str, r: int | None) -> AffPerm:
    """Parse a window `a,b,c`, with optional `^k` rho-power suffix, a word
    (when every entry is a generator index for the given r), or JSON."""
    spec = spec.strip()
    if spec.startswith("{"):
        return _from_json(_perm_from_json, spec)
    power = 0
    if "^" in spec:
        spec, raw = spec.split("^", 1)
        power = int(raw)
    parts = [int(p) for p in spec.split(",") if p != ""]
    if not parts:
        raise UsageError("empty window")
    _check_period(r or len(parts))
    if r is None or len(parts) == r:
        try:
            return AffPerm(r or len(parts), tuple(parts)).shift(power)
        except AffschurError:
            if r is None:
                raise
    if r is not None and all(0 <= p < r for p in parts):
        return affperm.from_word(r, power, parts)
    return AffPerm(r or len(parts), tuple(parts)).shift(power)


def parse_comp(spec: str, n: int | None) -> Composition:
    spec = spec.strip()
    if spec.startswith("{"):
        return _from_json(Composition.from_json, spec)
    parts = tuple(int(p) for p in spec.split(","))
    return Composition(n or len(parts), parts)


def parse_matrix(spec: str) -> PeriodicMatrix:
    return _from_json(PeriodicMatrix.from_json, spec)


def parse_elt(cls, spec: str, r: int | None) -> "HeckeElt | asymptotic.JElt":
    """Element JSON of cls (HeckeElt or JElt), or else the basis element T_w or
    t_w of a group element w in any form that parse_perm reads."""
    spec = spec.strip()
    if spec.startswith("{"):
        return _from_json(cls.from_json, spec)
    return (hecke.t_elt if cls is HeckeElt else asymptotic.j_elt)(parse_perm(spec, r))


# ---------------------------------------------------------------------------
# output


def _flatten(obj, prefix="") -> list[tuple[str, str]]:
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_flatten(obj[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix.rstrip("."), json.dumps(obj, sort_keys=True)))
    else:
        rows.append((prefix.rstrip("."), json.dumps(obj)))
    return rows


def emit(obj, fmt: str) -> None:
    """Print obj in one of FORMATS (checked by main before any command runs)."""
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=None))
    elif fmt == "csv":
        print("key,value")
        for k, v in _flatten(obj):
            v = v.replace('"', '""')
            print(f'{k},"{v}"')
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_length(args, cfg) -> dict:
    w = parse_perm(args.w, cfg["r"])
    return {"window": list(w.window), "l": w.length, "omega_degree": w.omega_degree,
            "right_descents": sorted(w.right_descents), "left_descents": sorted(w.left_descents),
            "provenance": "exact"}


def cmd_word(args, cfg) -> dict:
    w = parse_perm(args.w, cfg["r"])
    omega, word = w.reduced_word()
    return {"omega": omega, "word": list(word), "l": w.length, "provenance": "exact"}


def cmd_bruhat(args, cfg) -> dict:
    y = parse_perm(args.y, cfg["r"])
    w = parse_perm(args.w, cfg["r"])
    return {"y": list(y.window), "w": list(w.window), "leq": affperm.bruhat_leq(y, w),
            "provenance": "exact"}


def cmd_klpoly(args, cfg) -> dict:
    y = parse_perm(args.y, cfg["r"])
    w = parse_perm(args.w, cfg["r"])
    return {"P": hecke.kl_poly(y, w).to_json(), "note": "polynomial in q = t^2, t-exponents",
            "provenance": "exact"}


def cmd_cbasis(args, cfg) -> dict:
    w = parse_perm(args.w, cfg["r"])
    return (hecke.cprime_elt(w) if args.prime else hecke.c_elt(w)).to_json()


def cmd_hmul(args, cfg) -> dict:
    a, b = (parse_elt(HeckeElt, spec, cfg["r"]) for spec in (args.a, args.b))
    return hecke.h_mul(a, b).to_json()


def cmd_hstruct(args, cfg) -> dict:
    x = parse_perm(args.x, cfg["r"])
    y = parse_perm(args.y, cfg["r"])
    z = parse_perm(args.z, cfg["r"])
    return {"h": hecke.h_struct(x, y, z).to_json(), "provenance": "exact"}


def cmd_cosets(args, cfg) -> dict:
    lam = parse_comp(args.lam, cfg["n"])
    mu = parse_comp(args.mu, cfg["n"])
    A = parabolic.matrix_of(lam, parse_perm(args.w, lam.r), mu)
    coset = sorted(parabolic.double_coset(A), key=lambda x: x.sort_key)
    return {
        "min": list(parabolic.min_rep(A).window),
        "plus": list(parabolic.plus_rep(A).window),
        "size": len(coset),
        "elements": [list(x.window) for x in coset],
        "provenance": "exact",
    }


def cmd_matrix(args, cfg) -> dict:
    lam = parse_comp(args.lam, cfg["n"])
    mu = parse_comp(args.mu, cfg["n"])
    A = parabolic.matrix_of(lam, parse_perm(args.w, lam.r), mu)
    return {**A.to_json(), "d_A": parabolic.d_A_combinatorial(A), "provenance": "exact"}


def cmd_triple(args, cfg) -> dict:
    A = parse_matrix(args.A)
    return {
        "lam": A.ro.to_json(),
        "w": list(parabolic.min_rep(A).window),
        "mu": A.co.to_json(),
        "plus": list(parabolic.plus_rep(A).window),
        "d_A": parabolic.d_A_coxeter(A),
        "provenance": "exact",
    }


def cmd_theta(args, cfg) -> dict:
    A = parse_matrix(args.A)
    elt = schur.theta_in_phihat(A)
    if args.basis != "phihat":
        elt = schur.basis_convert(elt, args.basis)
    return elt.to_json()


def cmd_gstruct(args, cfg) -> dict:
    A, B, C = parse_matrix(args.A), parse_matrix(args.B), parse_matrix(args.C)
    return {"g": schur.g_struct(A, B, C).to_json(), "provenance": "exact"}


def cmd_afn(args, cfg) -> dict:
    z = parse_perm(args.z, cfg["r"])
    av = (asymptotic.certified_a if args.adaptive else asymptotic.a_bounded)(z, cfg["L"])
    return av.to_json()


def cmd_gamma(args, cfg) -> dict:
    hecke_side = all((args.x, args.y, args.z))
    matrix_side = all((args.A, args.B, args.C))
    if hecke_side == matrix_side:
        raise UsageError("gamma needs either all of --x/--y/--z or all of --A/--B/--C")
    if args.A:
        A, B, C = parse_matrix(args.A), parse_matrix(args.B), parse_matrix(args.C)
        g = asymptotic.gamma_mat(A, B, C, cfg["L"])
    else:
        x = parse_perm(args.x, cfg["r"])
        y = parse_perm(args.y, cfg["r"])
        z = parse_perm(args.z, cfg["r"])
        g = asymptotic.gamma(x, y, z, cfg["L"])
    return {"gamma": g, "provenance": "window-bounded, certified"}


def cmd_dinv(args, cfg) -> dict:
    _require(cfg, "r")
    if cfg["n"] is not None:
        dd = asymptotic.dinv_schur(*_theta_window(cfg))
        found = {"matrices": [[list(e) for e in A.entries] for A in dd]}
    else:
        dd = asymptotic.distinguished_involutions(cfg["r"], cfg["L"])
        found = {"windows": [list(d.window) for d in dd]}
    return {**found, "count": len(dd), "provenance": "window-bounded, certified"}


def cmd_jmul(args, cfg) -> dict:
    a, b = (parse_elt(asymptotic.JElt, spec, cfg["r"]) for spec in (args.a, args.b))
    return asymptotic.j_mul(a, b, cfg["L"]).to_json()


def cmd_phi_map(args, cfg) -> dict:
    if bool(args.A) == bool(args.w):
        raise UsageError("phi-map needs exactly one of --w or --A")
    if args.A:
        return asymptotic.lusztig_phi_schur(parse_matrix(args.A), cfg["L"]).to_json()
    return asymptotic.lusztig_phi_hecke(parse_perm(args.w, cfg["r"]), cfg["L"]).to_json()


def cmd_cells(args, cfg) -> dict:
    _require(cfg, "r")
    if args.hecke:
        elems = list(affperm.ball(cfg["r"], cfg["L"]))
    else:
        elems = list(parabolic.enumerate_theta(*_theta_window(cfg)))
    return asymptotic.cell_preorder(elems, args.flavor).to_json()


def cmd_lowest_cell(args, cfg) -> dict:
    return asymptotic.lowest_cell(*_theta_window(cfg)).to_json()


def cmd_qsuite(args, cfg) -> dict:
    return asymptotic.q_suite(*_theta_window(cfg))


def cmd_verify(args, cfg) -> dict:
    def progress(res: dict) -> None:
        status = "PASS" if res["ok"] else "FAIL"
        print(f"[{status}] {res['id']} ({res['seconds']}s): {res['summary']}", file=sys.stderr)

    results = [{k: res[k] for k in ("id", "ok", "summary", "seconds")}
               for res in verify.run_all(progress=progress)]
    return {"ok": all(r["ok"] for r in results), "criteria": results}


def cmd_cache_stats(args, cfg) -> dict:
    path = args.path or cfg["cache"]
    if not path:
        raise UsageError("cache-stats needs --cache or a positional path")
    return klcache.scan_stats(path)


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--r", type=int, default=None, help="period of the affine symmetric group")
    common.add_argument("--n", type=int, default=None, help="number of composition parts")
    common.add_argument("--L", type=int, default=None, help="length bound / scan radius")
    common.add_argument("--omega-window", default=None, metavar="lo:hi",
                        help="rho-power range for enumerations")
    common.add_argument("--cache", default=None, help="path of the KL JSON-lines cache")
    common.add_argument("--format", default=None, choices=FORMATS)

    p = argparse.ArgumentParser(
        prog="affschur",
        description="Exact Kazhdan-Lusztig combinatorics for the extended affine "
        "symmetric group, its Hecke algebra, and the affine q-Schur algebra.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, configure=None):
        sp = sub.add_parser(name, parents=[common], help=help_)
        if configure:
            configure(sp)
        sp.set_defaults(fn=fn)

    add("length", cmd_length, "length, omega-degree, and descents of a window",
        lambda sp: sp.add_argument("--w", required=True))
    add("word", cmd_word, "canonical reduced word rho^a s_i1 ... s_ik",
        lambda sp: sp.add_argument("--w", required=True))
    add("bruhat", cmd_bruhat, "Bruhat comparison y <= w",
        lambda sp: (sp.add_argument("--y", required=True), sp.add_argument("--w", required=True)))
    add("klpoly", cmd_klpoly, "Kazhdan-Lusztig polynomial P_{y,w}",
        lambda sp: (sp.add_argument("--y", required=True), sp.add_argument("--w", required=True)))
    add("cbasis", cmd_cbasis, "canonical basis element C_w (or C'_w) in the T-basis",
        lambda sp: (sp.add_argument("--w", required=True),
                    sp.add_argument("--prime", action="store_true")))
    add("hmul", cmd_hmul, "product of two T-basis Hecke elements",
        lambda sp: (sp.add_argument("--a", required=True), sp.add_argument("--b", required=True)))
    add("hstruct", cmd_hstruct, "structure constant h_{x,y,z} of the C-basis",
        lambda sp: (sp.add_argument("--x", required=True), sp.add_argument("--y", required=True),
                    sp.add_argument("--z", required=True)))
    add("cosets", cmd_cosets, "double coset of w: minimal/maximal representatives and members",
        lambda sp: (sp.add_argument("--lam", required=True), sp.add_argument("--mu", required=True),
                    sp.add_argument("--w", required=True)))
    add("matrix", cmd_matrix, "periodic matrix of a coset triple",
        lambda sp: (sp.add_argument("--lam", required=True), sp.add_argument("--mu", required=True),
                    sp.add_argument("--w", required=True)))
    add("triple", cmd_triple, "coset triple of a periodic matrix",
        lambda sp: sp.add_argument("--A", required=True))
    add("theta", cmd_theta, "canonical basis element theta_A expanded over phihat",
        lambda sp: (sp.add_argument("--A", required=True),
                    sp.add_argument("--basis", default="phihat",
                                    choices=("phi", "phihat", "e", "bracket"))))
    add("gstruct", cmd_gstruct, "structure constant g_{A,B,C} of the theta basis",
        lambda sp: (sp.add_argument("--A", required=True), sp.add_argument("--B", required=True),
                    sp.add_argument("--C", required=True)))
    add("afn", cmd_afn, "window-bounded a-function value with certification",
        lambda sp: (sp.add_argument("--z", required=True),
                    sp.add_argument("--adaptive", action="store_true",
                                    help="widen the scan radius until certified")))
    add("gamma", cmd_gamma, "leading coefficient gamma (Hecke --x/--y/--z or matrix --A/--B/--C)",
        lambda sp: (sp.add_argument("--x"), sp.add_argument("--y"), sp.add_argument("--z"),
                    sp.add_argument("--A"), sp.add_argument("--B"), sp.add_argument("--C")))
    add("dinv", cmd_dinv, "distinguished involutions in the window (matrices when --n is given)")
    add("jmul", cmd_jmul, "product in the asymptotic ring",
        lambda sp: (sp.add_argument("--a", required=True), sp.add_argument("--b", required=True)))
    add("phi-map", cmd_phi_map, "Lusztig homomorphism image (Hecke --w or Schur --A)",
        lambda sp: (sp.add_argument("--w"), sp.add_argument("--A")))
    add("cells", cmd_cells, "window-bounded cell preorder and partition",
        lambda sp: (sp.add_argument("--flavor", default="L", choices=("L", "R", "LR")),
                    sp.add_argument("--hecke", action="store_true",
                                    help="work in W instead of the matrix algebra")))
    add("lowest-cell", cmd_lowest_cell, "members and left cells of the lowest two-sided cell")
    add("qsuite", cmd_qsuite, "run the Q1-Q15 property suite on a certified window")
    add("verify", cmd_verify, "run the full acceptance suite")
    add("cache-stats", cmd_cache_stats, "inspect a KL cache file",
        lambda sp: sp.add_argument("path", nargs="?", default=None))
    return p


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap --help passthrough
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    cache = None
    try:
        cfg = {
            "r": _setting(args, "r", int),
            "n": _setting(args, "n", int),
            "L": _setting(args, "L", int),
            "omega_window": parse_omega_window(
                args.omega_window if args.omega_window is not None else _env("omega_window")
            ),
            "cache": _setting(args, "cache"),
            "format": _setting(args, "format"),
        }
        if cfg["format"] not in FORMATS:
            raise UsageError(f"unknown output format {cfg['format']!r}")
        if cfg["L"] < 0:
            raise UsageError(f"length bound L={cfg['L']} is negative")
        if cfg["r"] is not None:
            _check_period(cfg["r"])  # before any command enumerates windows of that size
        if cfg["cache"]:
            cache = klcache.KLCache(cfg["cache"]).load()
        out = args.fn(args, cfg)
        emit(out, cfg["format"])
        if cache is not None:
            appended = cache.save_new()
            stats = cache.stats()
            stats["appended"] = appended
            print(json.dumps({"cache": stats}, sort_keys=True), file=sys.stderr)
        return EXIT_VERIFY if out.get("ok") is False else EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UncertifiedAValue, UncertifiedBoundary, WindowExceeded) as exc:
        print(f"uncertified data refusal: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except CacheIoError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except KLInvariantViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except AffschurError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
