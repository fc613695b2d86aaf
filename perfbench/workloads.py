"""The four benchmark workloads, as generators of checked items.

Each workload is a function ``(sizes, rng, cache_path)`` that calls into
``affschur`` and yields ``(key, kind, value)`` items, where ``kind`` is

* ``"digest"``: a canonical-JSON digest compared with the recorded reference;
* ``"oracle"``: an in-run check that must be True;
* ``"a"``: an a-value ``[value, certified]``, compared by ``check_a``.

The program is reached only through module attributes (``hecke.c_elt``, not
``from affschur.hecke import c_elt``), so the wrappers of a traced run see
every call made from here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from affschur import affperm, asymptotic, cli, hecke, klcache, parabolic, schur

SIZES = {
    "full": {
        "kl_balls": [(3, 9), (4, 6)],
        "theta": (3, 3, 3, (0, 0)),
        "two_route_pairs": 200,
        "bar_matrices": 150,
        "a_ball": (3, 4),
        "a_radius": 4,
        "qsuite_argv": ["qsuite", "--n", "2", "--r", "2", "--L", "2", "--omega-window=-1:1"],
    },
    "toy": {
        "kl_balls": [(2, 3)],
        "theta": (2, 2, 2, (0, 0)),
        "two_route_pairs": 10,
        "bar_matrices": 5,
        "a_ball": (2, 2),
        "a_radius": 3,
        "qsuite_argv": ["qsuite", "--n", "1", "--r", "2", "--L", "2"],
    },
}


def digest(obj) -> str:
    """First 16 hex digits of the SHA-256 of the canonical JSON of obj."""
    raw = obj if isinstance(obj, bytes) else json.dumps(
        obj, sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def perm_key(w) -> str:
    return f"{w.r}:{','.join(map(str, w.window))}"


def matrix_key(A) -> str:
    return json.dumps([list(e) for e in A.entries], separators=(",", ":"))


def _elements(sizes, rng):
    elements = [w for r, L in sizes["kl_balls"] for w in affperm.ball(r, L)]
    rng.shuffle(elements)
    return elements


def kl_cold(sizes, rng, cache_path):
    """All C_w on the balls from an empty memo, then save the memo to disk."""
    for w in _elements(sizes, rng):
        yield f"C:{perm_key(w)}", "digest", digest(hecke.c_elt(w).to_json())
    cache = klcache.KLCache(cache_path)
    written = cache.save_new()
    with open(cache_path, "rb") as fh:
        yield "cache-file", "digest", digest(b"%d\n" % written + fh.read())


def kl_warm(sizes, rng, cache_path):
    """C_w and bar(C_w) == C_w from a memo the worker loaded during set-up."""
    for w in _elements(sizes, rng):
        c = hecke.c_elt(w)
        yield f"C:{perm_key(w)}", "digest", digest(c.to_json())
        yield f"bar:{perm_key(w)}", "oracle", hecke.h_bar(c) == c
    # any KL recursion means the loaded cache was not used
    yield "kl-computed-zero", "oracle", hecke.kl_memo_stats()["computed"] == 0


def schur_products(sizes, rng, cache_path):
    """A theta window, every g-expansion in it, two-route and bar samples."""
    n, r, L, window = sizes["theta"]
    win = parabolic.enumerate_theta(n, r, L, window)
    yield "theta-window", "digest", digest([matrix_key(A) for A in win])
    rows = list(win)
    rng.shuffle(rows)
    pairs = []
    for A in rows:
        row = [B for B in win if A.co == B.ro]
        pairs.extend((A, B) for B in row)
        expansions = [
            [matrix_key(B), [[matrix_key(C), g.to_json()] for C, g in schur.g_expansion(A, B)]]
            for B in row
        ]
        yield f"g:{matrix_key(A)}", "digest", digest(expansions)
    with step("schur.two_route"):
        for A, B in rng.sample(pairs, min(sizes["two_route_pairs"], len(pairs))):
            direct = schur.theta_mul(schur.theta_elt(A), schur.theta_elt(B))
            via = schur.basis_convert(
                schur.phi_mul(
                    schur.basis_convert(schur.theta_elt(A), "phi"),
                    schur.basis_convert(schur.theta_elt(B), "phi"),
                ),
                "theta",
            )
            yield f"two-route:{matrix_key(A)}*{matrix_key(B)}", "oracle", direct == via
    with step("schur.bar"):
        for B in rng.sample(rows, min(sizes["bar_matrices"], len(rows))):
            theta = schur.theta_elt(B)
            yield f"bar:{matrix_key(B)}", "oracle", schur.schur_bar(theta) == theta


def asymptotic_scan(sizes, rng, cache_path):
    """The a-scan over a ball, then the Q-suite through the command line."""
    zs = list(affperm.ball(*sizes["a_ball"]))
    rng.shuffle(zs)
    for z in zs:
        av = asymptotic.a_bounded(z, sizes["a_radius"])
        yield f"a:{perm_key(z)}", "a", [av.value, av.certified]
    out = io.StringIO()
    with step("cli.main"), contextlib.redirect_stdout(out):
        code = cli.main(list(sizes["qsuite_argv"]))
    text = out.getvalue()
    yield "qsuite-exit", "oracle", code == 0
    yield "qsuite-ok", "oracle", json.loads(text or "{}").get("ok") is True
    yield "qsuite-stdout", "digest", digest(text.encode())


WORKLOADS = {
    "kl-cold": kl_cold,
    "kl-warm": kl_warm,
    "schur-products": schur_products,
    "asymptotic": asymptotic_scan,
}


def check_a(got, ref) -> bool:
    """A certified reference must match exactly; an uncertified one may only
    become certified at or above its scanned maximum, or else repeat."""
    value, certified = got
    ref_value, ref_certified = ref
    if ref_certified:
        return got == ref
    return value >= ref_value if certified else value == ref_value


def check(kind, key, value, reference) -> bool:
    if kind == "oracle":
        return value is True
    if kind == "a":
        return key in reference["a"] and check_a(value, reference["a"][key])
    return reference["digests"].get(key) == value


def step(name: str):
    """Mark a benchmark phase; a traced run replaces this with a span."""
    return contextlib.nullcontext()

