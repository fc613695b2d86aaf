"""Benchmark for affschur: cold-process workloads with exact output checks.

    python3 perfbench/run.py --workload kl-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --record-reference

Each run first prepares (kl-warm: runs kl-cold once to write the KL cache
file it loads), then spawns set-up probes, then runs the workload in fresh
single-threaded worker processes for ``--seconds`` (at least three times), and
reports medians.  Every worker checks every item against reference.json or an
in-run oracle.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

Everything a run writes stays under ``.perfbench/`` at the repository root:
per-run results with the environment they ran in, and for traced runs the
span file and the per-layer self-time table.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from metrics import END_TO_END, PER_LAYER  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["kl-cold", "kl-warm", "schur-products", "asymptotic"]
SETUP_PROBES = 5
MIN_ITERATIONS = 3
# every worker of one run must end this many seconds after the run starts
RUN_DEADLINE = 170
HASH_SEED = "0"


def child_env() -> dict:
    """The caller's environment minus AFFSCHUR_* defaults, with affschur from src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("AFFSCHUR_")}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED=HASH_SEED,
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "hash_seed": HASH_SEED,
        "platform": platform.platform(),
    }


class Runner:
    """Spawns the workers of one workload run inside a fresh temp directory."""

    def __init__(self, workload, seed, sizes, reference, tmp):
        self.workload, self.seed, self.sizes, self.reference = workload, seed, sizes, reference
        self.tmp = tmp
        self.spawned = 0
        self.errors: list[str] = []
        self.deadline = time.monotonic() + RUN_DEADLINE

    def spawn(self, mode, cache, trace=False, spans=None, run_id="") -> dict | None:
        self.spawned += 1
        out = os.path.join(self.tmp, f"out-{self.spawned}.json")
        cmd = [
            sys.executable, "-s", os.path.join(HERE, "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--sizes", self.sizes,
            "--mode", mode, "--cache", cache, "--out", out,
            "--reference", self.reference, "--trace", str(int(trace)),
            "--spans", spans or os.devnull, "--run-id", run_id,
        ]
        now = time.monotonic()
        cmd += ["--spawned", repr(now)]
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(self.deadline - now, 0.1))
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} worker killed: the run passed {RUN_DEADLINE} s")
            return None
        if proc.returncode != 0 or not os.path.exists(out):
            self.errors.append(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        if res.get("error"):
            self.errors.append(res["error"])
        return res


def run_workload(workload, seed, seconds, trace, sizes, reference) -> dict:
    """One benchmark run; returns the summary that run.py prints and saves."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        return _run(Runner(workload, seed, sizes, reference, tmp), seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _cache(runner, iteration) -> str:
    # kl-warm reads one prepared file; kl-cold writes a fresh one every time
    name = "prepared-kl.jsonl" if runner.workload == "kl-warm" else f"kl-{iteration}.jsonl"
    return os.path.join(runner.tmp, name)


def _run(runner, seconds, trace) -> dict:
    attempted = failed = 0
    if runner.workload == "kl-warm":
        if runner.spawn("prepare", _cache(runner, 0)) is None:
            attempted, failed = 1, 1
    setups = []
    for _ in range(0 if trace else SETUP_PROBES):
        res = runner.spawn("setup", _cache(runner, 0))
        if res is not None:
            setups.append(res["setup_s"])

    tag = f"{runner.workload}-seed{runner.seed}"
    spans = os.path.join(OUT_DIR, "trace", f"{tag}.spans.jsonl")
    if trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        open(spans, "w").close()
    plain, traced = [], []
    start = time.monotonic()
    iteration = 0
    while True:
        is_traced = bool(trace) and iteration % 2 == 1
        began = time.monotonic()
        res = runner.spawn("run", _cache(runner, iteration), trace=is_traced, spans=spans,
                           run_id=f"{tag}-iter{iteration}")
        iteration += 1
        if res is None:
            expected = _reference_items(runner)
            attempted, failed = attempted + expected, failed + expected
        else:
            attempted += res["attempted"]
            failed += res["failed"]
            (traced if is_traced else plain).append(res)
            setups.append(res["setup_s"])
        now = time.monotonic()
        enough = iteration >= (2 if trace else MIN_ITERATIONS)
        if now - start >= seconds or now >= runner.deadline:
            break
        if enough and now - start + (now - began) > seconds:
            break

    summary = {
        "workload": runner.workload,
        "seed": runner.seed,
        "seconds": seconds,
        "sizes": runner.sizes,
        "environment": environment(),
        "iterations": len(plain) + len(traced),
        "attempted": attempted or 1,
        "failed": failed if attempted else 1,
        "errors": runner.errors[:5],
        "samples": {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        },
        "a_attempted": plain[0]["a_attempted"] if plain else 0,
        "a_certified": plain[0]["a_certified"] if plain else 0,
        "failures": sorted({k for r in plain + traced for k in r["failures"]})[:20],
    }
    if trace:
        summary["metrics"] = _layer_metrics(plain, traced, runner, tag)
    else:
        summary["metrics"] = {
            name: {"value": statistics.median(summary["samples"][name]), "unit": unit}
            for name, (unit, _) in END_TO_END.items()
            if summary["samples"][name]
        }
    expected = PER_LAYER if trace else END_TO_END
    summary["correct"] = (
        summary["failed"] == 0 and not runner.errors and len(summary["metrics"]) == len(expected)
    )
    return summary


def _reference_items(runner) -> int:
    with open(runner.reference, encoding="utf-8") as fh:
        return json.load(fh)[runner.sizes][runner.workload]["items"]


def _layer_metrics(plain, traced, runner, tag) -> dict:
    """Counts from the first traced worker, times as medians over traced workers."""
    if not traced:
        runner.errors.append("no traced worker finished")
        return {}
    first = traced[0]["layers"]
    for res in traced[1:]:
        for name, (unit, _) in PER_LAYER.items():
            if unit != "s" and name in first and res["layers"][name] != first[name]:
                runner.errors.append(f"count {name} differs between traced workers")
    values = {}
    for name, (unit, _) in PER_LAYER.items():
        if name == "trace.overhead_s":
            untraced = statistics.median(r["wall_s"] for r in plain) if plain else 0.0
            value = statistics.median(r["wall_s"] for r in traced) - untraced
        elif unit == "s":
            value = statistics.median(r["layers"][name] for r in traced)
        else:
            value = first[name]
        values[name] = {"value": value, "unit": unit}
    _write_self_time(traced[0], tag)
    return values


def _write_self_time(res, tag) -> None:
    rows = res["self_time"]
    wall = res["wall_s"] + res["setup_s"]
    lines = [f"# self time of {tag}, first traced worker (setup {res['setup_s']:.3f} s, "
             f"workload {res['wall_s']:.3f} s)",
             f"{'span':40s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'self%':>6s}"]
    for row in rows:
        lines.append(f"{row['name']:40s} {row['calls']:9d} {row['total_s']:10.4f} "
                     f"{row['self_s']:10.4f} {100 * row['self_s'] / wall:6.1f}")
    layers: dict[str, float] = {}
    for row in rows:
        layer = row["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    lines.append("# per layer; bench is the item loop itself: checks, digests and calls"
                 " into affschur that no wrapped function covers")
    for layer, s in sorted(layers.items(), key=lambda p: -p[1]):
        lines.append(f"{layer:40s} {'':9s} {'':10s} {s:10.4f} {100 * s / wall:6.1f}")
    text = "\n".join(lines) + "\n"
    with open(os.path.join(OUT_DIR, "trace", f"{tag}.selftime.txt"), "w") as fh:
        fh.write(text)
    sys.stderr.write(text)


def save(summary, trace) -> None:
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    name = f"{summary['workload']}-seed{summary['seed']}-trace{int(trace)}.json"
    with open(os.path.join(OUT_DIR, "results", name), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)


def run_all(args) -> int:
    """Every workload untraced, one table of every metric with its unit."""
    ok = True
    print(f"{'workload':16s} {'metric':18s} {'value':>12s} unit")
    for workload in WORKLOADS:
        s = run_workload(workload, args.seed, args.seconds, 0, args.sizes, args.reference)
        save(s, 0)
        ok &= s["correct"]
        rows = [(m, v["value"], v["unit"]) for m, v in s["metrics"].items()]
        rows.append(("fail_frac", s["failed"] / s["attempted"], "ratio"))
        if workload == "asymptotic":
            rows.append(("a_certified_frac", s["a_certified"] / max(s["a_attempted"], 1),
                         "ratio"))
        for metric, value, unit in rows:
            print(f"{workload:16s} {metric:18s} {value:12.4f} {unit}")
        if workload == "asymptotic":
            print(f"{'':16s} {'':18s} ({s['a_certified']}/{s['a_attempted']} a-values certified)")
        for err in s["errors"]:
            print(err, file=sys.stderr)
    print(json.dumps({"environment": environment(), "correct": ok}, sort_keys=True))
    return 0 if ok else 1


def record_reference(args) -> int:
    """Write reference.json from the program as it is now, for every size."""
    reference = {}
    for sizes in ("full", "toy"):
        reference[sizes] = {}
        for workload in WORKLOADS:
            tmp = tempfile.mkdtemp(prefix="record-", dir=OUT_DIR)
            try:
                runner = Runner(workload, 0, sizes, os.devnull, tmp)
                cache = _cache(runner, 0)
                if workload == "kl-warm" and runner.spawn("prepare", cache) is None:
                    raise SystemExit("\n".join(runner.errors))
                res = runner.spawn("record", cache)
                if res is None or res["failed"] or res["error"]:
                    raise SystemExit(f"{workload}/{sizes}: {runner.errors} {res and res['failures']}")
                reference[sizes][workload] = res["reference"]
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            print(f"recorded {sizes} {workload}: {res['attempted']} items", file=sys.stderr)
    with open(args.reference, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--sizes", choices=["full", "toy"], default="full",
                   help="toy sizes are for the smoke test of the benchmark itself")
    p.add_argument("--reference", default=REFERENCE, help="reference digests (JSON)")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite the reference from the program as it is now")
    args = p.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "affschur", "__init__.py")):
        print(f"no affschur sources under {ROOT}/src; nothing to benchmark", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.record_reference:
        return record_reference(args)
    if not os.path.exists(args.reference):
        print(f"reference file {args.reference} is missing", file=sys.stderr)
        return 2
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    summary = run_workload(args.workload, args.seed, args.seconds, args.trace, args.sizes,
                           args.reference)
    save(summary, args.trace)
    for err in summary["errors"]:
        print(err, file=sys.stderr)
    if summary["failures"]:
        print(f"failed items: {summary['failures']}", file=sys.stderr)
    print(json.dumps({key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
