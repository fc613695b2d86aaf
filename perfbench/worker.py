"""One cold benchmark process: set up, run one workload once, check every item.

Started by run.py with a hermetic environment; not meant to be run by hand.
Set-up is the time from the parent's spawn timestamp (CLOCK_MONOTONIC, shared
by all processes) until ``affschur`` is imported and, for kl-warm, the KL
cache file is loaded.  ``wall_s`` runs from the first call into ``affschur``
after set-up to the last item checked.  The result goes to ``--out`` as JSON.

Modes: ``setup`` stops once set up; ``run`` checks items against the
reference; ``prepare`` runs kl-cold to write the cache file kl-warm loads;
``record`` returns the digests and a-values that become the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import sys
import time
import traceback


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--mode", choices=["setup", "run", "prepare", "record"], required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reference")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans")
    p.add_argument("--run-id", default="")
    args = p.parse_args()

    import affschur
    from affschur import klcache

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(affschur.__file__).startswith(src + os.sep):
        raise SystemExit(f"affschur imported from {affschur.__file__}, not from {src}")

    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install(args.run_id)
    if args.workload == "kl-warm" and args.mode != "prepare":
        klcache.KLCache(args.cache).load()
    setup_s = time.monotonic() - args.spawned
    result: dict = {"setup_s": setup_s}
    if args.mode != "setup":
        result.update(run(args, workloads, tracer))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run(args, workloads, tracer) -> dict:
    workload = "kl-cold" if args.mode == "prepare" else args.workload
    reference = None
    if args.mode == "run":
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)[args.sizes][workload]
    items = workloads.WORKLOADS[workload](
        workloads.SIZES[args.sizes], random.Random(args.seed), args.cache
    )
    attempted = failed = a_attempted = a_certified = 0
    failures: list[str] = []
    recorded: dict = {"digests": {}, "a": {}}
    error = None
    # in a traced run, the items loop is the root span of the workload
    root = tracer.span(f"bench.{workload}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with root:
            for key, kind, value in items:
                attempted += 1
                if kind == "a":
                    a_attempted += 1
                    a_certified += bool(value[1])
                if args.mode == "run":
                    ok = workloads.check(kind, key, value, reference)
                else:
                    ok = kind != "oracle" or value is True
                    recorded["digests" if kind == "digest" else "a"][key] = value
                if not ok:
                    failed += 1
                    failures.append(key)
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    if error is not None:
        # items the crash kept from running count as failed
        expected = reference["items"] if reference else attempted + 1
        failed += max(expected - attempted, 1)
        attempted = max(expected, attempted + 1)
    out = {
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "error": error,
        "a_attempted": a_attempted,
        "a_certified": a_certified,
    }
    if args.mode == "record":
        out["reference"] = dict(recorded, items=attempted)
    if tracer is not None:
        out["layers"] = tracer.metrics(a_attempted, a_certified)
        out["self_time"] = tracer.self_time_rows()
        tracer.write_spans(args.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
