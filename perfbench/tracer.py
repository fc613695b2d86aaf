"""Per-layer tracing for one worker process, done entirely from outside src/.

``install`` wraps the public functions of each layer.  Modules import names
directly (``asymptotic`` binds ``h_expansion``, ``schur`` binds ``h_bar``), so
a function is replaced in every module that holds it, not only where it is
defined.  Timed calls become spans (name, start, end, parent, run id) kept in
memory; hot calls (``LaurentPoly.__mul__``, ``AffPerm`` construction, Bruhat
tests) are only counted.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

from affschur import affperm, asymptotic, hecke, klcache, parabolic, schur
from affschur.affperm import AffPerm
from affschur.laurent import LaurentPoly

import workloads

# Spans past this many are still timed and aggregated but not kept one by one.
SPAN_CAP = 100_000

# Functions timed as spans: (module that defines it, attribute, span name).
TIMED = [
    (affperm, "ball", "affperm.ball"),
    (parabolic, "enumerate_theta", "parabolic.enumerate_theta"),
    (parabolic, "min_double_rep", "parabolic.min_double_rep"),
    (hecke, "c_elt", "hecke.c_elt"),
    (hecke, "h_bar", "hecke.h_bar"),
    (hecke, "h_expansion", "hecke.h_expansion"),
    (schur, "g_expansion", "schur.g_expansion"),
    (asymptotic, "a_bounded", "asymptotic.a_bounded"),
    (asymptotic, "gamma_mat_expansion", "asymptotic.gamma_mat_expansion"),
    (asymptotic, "q_suite", "asymptotic.q_suite"),
]
# Functions only counted.
COUNTED = [
    (affperm, "bruhat_leq", "affperm.bruhat_leq"),
    (hecke, "h_mul", "hecke.h_mul"),
]
# The memo tables the per-layer metrics read, captured before wrapping.
MEMOS = {
    "leq": affperm._leq_coxeter,
    "lower": affperm._lower_coxeter,
    "double_coset": parabolic.double_coset,
    "plus_rep": parabolic.plus_rep,
    "h_expansion": hecke._h_expansion_core,
    "g_expansion": schur.g_expansion,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []  # [span id, child time]
        self.next_id = 0
        self.calls: Counter = Counter()
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    def _enter(self) -> list:
        self.next_id += 1
        frame = [self.next_id, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dur
        self.calls[name] += 1
        self.total[name] += dur
        self.self_s[name] += dur - frame[1]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent[0] if parent else None, name, start, end))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start)

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self, a_attempted: int, a_certified: int) -> dict:
        c, t, memo = self.counts, self.total, MEMOS
        kl = hecke.kl_memo_stats()
        return {
            "laurent.mul_calls": c["laurent.mul"],
            "laurent.exact_div_calls": self.calls["laurent.exact_div"],
            "laurent.exact_div_s": t["laurent.exact_div"],
            "affperm.perms_built": c["affperm.built"],
            "affperm.mul_calls": c["affperm.mul"],
            "affperm.bruhat_leq_calls": c["affperm.bruhat_leq"],
            "affperm.leq_memo_misses": memo["leq"].cache_info().misses,
            "affperm.lower_memo_entries": memo["lower"].cache_info().currsize,
            "affperm.ball_s": t["affperm.ball"],
            "parabolic.enumerate_theta_s": t["parabolic.enumerate_theta"],
            "parabolic.matrices": c["parabolic.matrices"],
            "parabolic.min_double_rep_calls": self.calls["parabolic.min_double_rep"],
            "parabolic.min_double_rep_s": t["parabolic.min_double_rep"],
            "parabolic.double_coset_memo_entries": memo["double_coset"].cache_info().currsize,
            "parabolic.plus_rep_memo_misses": memo["plus_rep"].cache_info().misses,
            "hecke.kl_computed": kl["computed"],
            "hecke.kl_hits": kl["hits"],
            "hecke.kl_loaded": kl["loaded"],
            "hecke.kl_entries": kl["entries"],
            "hecke.c_elt_s": t["hecke.c_elt"],
            "hecke.h_bar_s": t["hecke.h_bar"],
            "hecke.h_mul_calls": c["hecke.h_mul"],
            "hecke.h_expansion_calls": self.calls["hecke.h_expansion"],
            "hecke.h_expansion_s": t["hecke.h_expansion"],
            "hecke.h_expansion_memo_misses": memo["h_expansion"].cache_info().misses,
            "schur.g_expansion_calls": self.calls["schur.g_expansion"],
            "schur.g_expansion_memo_misses": memo["g_expansion"].cache_info().misses,
            "schur.g_expansion_s": t["schur.g_expansion"],
            "schur.two_route_s": t["schur.two_route"],
            "schur.bar_s": t["schur.bar"],
            "asymptotic.a_bounded_calls": self.calls["asymptotic.a_bounded"],
            "asymptotic.a_bounded_s": t["asymptotic.a_bounded"],
            "asymptotic.a_attempted": a_attempted,
            "asymptotic.a_certified": a_certified,
            "asymptotic.a_memo_entries": len(asymptotic._A_CACHE),
            "asymptotic.gamma_mat_expansion_calls": self.calls["asymptotic.gamma_mat_expansion"],
            "asymptotic.gamma_mat_expansion_s": t["asymptotic.gamma_mat_expansion"],
            "asymptotic.q_suite_s": t["asymptotic.q_suite"],
            "asymptotic.q_suite_self_s": self.self_s["asymptotic.q_suite"],
            "klcache.load_s": t["klcache.load"],
            "klcache.records_loaded": c["klcache.records_loaded"],
            "klcache.corrupt_skipped": c["klcache.corrupt_skipped"],
            "klcache.save_s": t["klcache.save"],
            "klcache.records_written": c["klcache.records_written"],
            "klcache.bytes_written": c["klcache.bytes_written"],
            "cli.main_s": t["cli.main"],
            "cli.self_s": self.self_s["cli.main"],
        }

    def self_time_rows(self) -> list[dict]:
        """One row per span name, largest self time first."""
        rows = [
            {"name": n, "calls": self.calls[n], "total_s": self.total[n], "self_s": self.self_s[n]}
            for n in self.calls
        ]
        return sorted(rows, key=lambda row: -row["self_s"])

    def write_spans(self, path: str) -> None:
        """Append one header line, then one [id, parent, name, start, end] per span."""
        with open(path, "a", encoding="utf-8") as fh:
            header = {"run": self.run_id, "fields": ["id", "parent", "name", "start", "end"],
                      "spans": len(self.spans), "dropped": self.dropped}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _replace_everywhere(fn, wrapper) -> None:
    """Rebind every module-level name that holds fn, in affschur and here."""
    modules = [m for n, m in sys.modules.items() if n == "affschur" or n.startswith("affschur.")]
    for module in modules + [workloads]:
        for attr, val in list(vars(module).items()):
            if val is fn:
                setattr(module, attr, wrapper)


def install(run_id: str) -> Tracer:
    tr = Tracer(run_id)
    for module, attr, name in TIMED:
        fn = getattr(module, attr)
        _replace_everywhere(fn, tr.timed(name, fn))
    for module, attr, name in COUNTED:
        fn = getattr(module, attr)
        _replace_everywhere(fn, tr.counted(name, fn))

    enumerate_theta = parabolic.enumerate_theta

    def counting_enumerate_theta(*args, **kwargs):
        out = enumerate_theta(*args, **kwargs)
        tr.counts["parabolic.matrices"] += len(out)
        return out

    _replace_everywhere(enumerate_theta, counting_enumerate_theta)

    mul = tr.counted("laurent.mul", LaurentPoly.__mul__)
    LaurentPoly.__mul__ = mul
    LaurentPoly.__rmul__ = mul
    LaurentPoly.exact_div = tr.timed("laurent.exact_div", LaurentPoly.exact_div)
    AffPerm.__post_init__ = tr.counted("affperm.built", AffPerm.__post_init__)
    AffPerm.__mul__ = tr.counted("affperm.mul", AffPerm.__mul__)

    load, save_new = klcache.KLCache.load, klcache.KLCache.save_new

    def traced_load(cache):
        with tr.span("klcache.load"):
            out = load(cache)
        tr.counts["klcache.records_loaded"] += cache.loaded
        tr.counts["klcache.corrupt_skipped"] += cache.corrupt
        return out

    def size(path):
        return os.path.getsize(path) if os.path.exists(path) else 0

    def traced_save_new(cache):
        before = size(cache.path)
        with tr.span("klcache.save"):
            written = save_new(cache)
        tr.counts["klcache.records_written"] += written
        tr.counts["klcache.bytes_written"] += size(cache.path) - before
        return written

    klcache.KLCache.load = traced_load
    klcache.KLCache.save_new = traced_save_new
    workloads.step = tr.span
    return tr
