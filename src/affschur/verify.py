"""The acceptance suite: every advertised identity, re-checked from scratch.

Each criterion is exact (integer / Laurent-polynomial equality, zero
tolerance) and runs on the window stated in its docstring.  `run_all` powers
both the `affschur verify` subcommand and tests/test_acceptance.py; each
criterion returns a dict with an "ok" flag and a human-readable summary.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable

from .affperm import ball, bruhat_leq, from_word, generator, identity
from .asymptotic import (
    a_bounded,
    delta_cap,
    distinguished_involutions,
    j_elt,
    j_identity_hecke,
    j_identity_schur,
    j_mul,
    lowest_cell,
    lusztig_phi_elt,
    lusztig_phi_schur,
    q_suite,
)
from .hecke import c_elt, h_bar, h_expansion, h_mul, kl_poly, kl_shaped, t_to_c
from .parabolic import (
    Composition,
    PeriodicMatrix,
    d_A_combinatorial,
    d_A_coxeter,
    enumerate_theta,
    min_rep,
    plus_rep,
)
from .schur import (
    basis_convert,
    g_expansion,
    phi_mul,
    schur_bar,
    schur_identity,
    theta_apply,
    theta_elt,
    theta_mul,
    theta_mul_lemma42,
    theta_mul_lemma61,
)

__all__ = ["CRITERIA", "run_all", "run_criterion"]


def _result(ok: bool, summary: str, **extra) -> dict:
    out = {"ok": bool(ok), "summary": summary}
    out.update(extra)
    return out


def c01_kl_bar_oracle() -> dict:
    """bar(C_w) = C_w and the KL degree bound over the r=2 radius-8 and
    r=3 radius-5 balls."""
    checked = 0
    for r, bound in ((2, 8), (3, 5)):
        for w in ball(r, bound):
            cw = c_elt(w)
            if h_bar(cw) != cw:
                return _result(False, f"bar(C_w) != C_w at r={r}, w={w.window}")
            for y in cw.support():
                p = kl_poly(y, w)
                if y != w and (not kl_shaped(p) or p.degree() > w.length - y.length - 1):
                    return _result(False, f"degree bound fails at P_{y.window},{w.window}")
                checked += 1
    return _result(True, f"bar-invariance and degree bound on {checked} KL pairs")


def c02_h_positive_symmetric() -> dict:
    """Nonnegativity and bar-symmetry of every h_{x,y,z} on the r=2 radius-5
    and r=3 radius-3 windows, each expansion C_x C_y (taken in the C-basis)
    checked against the T-basis product of C_x and C_y peeled back."""
    checked = 0
    for r, bound in ((2, 5), (3, 3)):
        elems = ball(r, bound)
        for x in elems:
            for y in elems:
                exp = h_expansion(x, y)
                if exp != t_to_c(h_mul(c_elt(x), c_elt(y))).terms:
                    return _result(
                        False, f"C- and T-basis products differ at r={r}: ({x.window},{y.window})"
                    )
                for z, h in exp.items():
                    checked += 1
                    if not h.is_nonnegative() or not h.is_bar_symmetric():
                        return _result(
                            False,
                            f"h fails at r={r}: ({x.window},{y.window},{z.window}) = {h!r}",
                        )
    return _result(True, f"{checked} structure constants nonnegative and bar-symmetric")


def c03_exact_division() -> dict:
    """Prop-3.2-style exactness: for every composable theta-pair on the
    (2,2), L=4 window the division by h_mu is exact and lands in N[t,1/t]."""
    win = enumerate_theta(2, 2, 4, (-2, 2))
    pairs = checked = 0
    for A in win:
        for B in win:
            if A.co != B.ro:
                continue
            pairs += 1
            for C, g in g_expansion(A, B):  # raises InexactDivision on failure
                checked += 1
                if not g.is_nonnegative():
                    return _result(False, f"negative g at ({A.entries},{B.entries},{C.entries})")
    return _result(True, f"{checked} exact divisions over {pairs} composable pairs, all in N[t,1/t]")


def c04_two_route_products() -> dict:
    """theta_mul via exact division equals endomorphism composition on the
    full (2,2) L=4 window, with deterministic spot checks at (3,3), L=3."""
    win = enumerate_theta(2, 2, 4, (-2, 2))
    pairs = [(A, B) for A in win for B in win if A.co == B.ro]
    win3 = enumerate_theta(3, 3, 3, (-1, 1))
    pairs3 = [(A, B) for A in win3 for B in win3 if A.co == B.ro]
    pairs += random.Random(20250810).sample(pairs3, min(25, len(pairs3)))
    for A, B in pairs:
        direct = theta_mul(theta_elt(A), theta_elt(B))
        via = basis_convert(
            phi_mul(basis_convert(theta_elt(A), "phi"), basis_convert(theta_elt(B), "phi")),
            "theta",
        )
        if direct != via:
            return _result(False, f"two routes differ at ({A.n},{A.r}): ({A.entries}, {B.entries})")
    return _result(True, f"two multiplication routes agree on {len(pairs)} pairs")


def c05_dimension_statistic() -> dict:
    """d_A by the entry-pair sum equals l(w_A^+) - l(w_{0,mu}) on the stated
    (n, r) windows with L = 5."""
    checked = 0
    for n, r in ((1, 2), (2, 2), (2, 3), (3, 3)):
        for A in enumerate_theta(n, r, 5):
            if d_A_combinatorial(A) != d_A_coxeter(A):
                return _result(False, f"d_A mismatch at (n={n},r={r}), A={A.entries}")
            checked += 1
    return _result(True, f"both d_A routes agree on {checked} matrices")


def c06_theta_sends_parabolic_c() -> dict:
    """theta_B maps C_{w_0,mu} to C_{w_B^+} for every B on the (2,2) L=4 window."""
    checked = 0
    for B in enumerate_theta(2, 2, 4, (-2, 2)):
        w0mu = plus_rep(PeriodicMatrix.diagonal(B.co))
        if theta_apply(B, c_elt(w0mu)) != c_elt(plus_rep(B)):
            return _result(False, f"theta misfires at B={B.entries}")
        checked += 1
    return _result(True, f"theta_B(C_w0mu) = C_w+ for {checked} matrices")


def c07_bar_fixes_theta() -> dict:
    """The bar involution fixes every theta_B on the (2,2) L=4 window."""
    checked = 0
    for B in enumerate_theta(2, 2, 4, (-2, 2)):
        tb = theta_elt(B)
        if schur_bar(tb) != tb:
            return _result(False, f"bar moves theta at B={B.entries}")
        checked += 1
    return _result(True, f"bar fixes all {checked} theta_B")


def c08_idempotent_and_fast_paths() -> dict:
    """theta_D^2 = theta_D for D = ((2,0),1,(2,0)), and the one-term product
    shortcuts agree with general multiplication wherever they apply."""
    two0 = Composition(2, (2, 0))
    D = PeriodicMatrix.diagonal(two0)
    td = theta_elt(D)
    if theta_mul(td, td) != td:
        return _result(False, "the lowest-cell idempotent fails")
    win = enumerate_theta(2, 2, 4, (-2, 2))
    n42 = n61 = 0
    for A in win:
        for B in win:
            if A.co != B.ro:
                continue
            general = None
            if min_rep(A).is_identity() and A.ro.gens <= A.co.gens:
                general = theta_mul(theta_elt(A), theta_elt(B))
                if theta_mul_lemma42(A, B) != general:
                    return _result(False, f"lemma-4.2 path differs at ({A.entries},{B.entries})")
                n42 += 1
            if min_rep(B).is_identity() and B.co.gens <= B.ro.gens:
                if general is None:
                    general = theta_mul(theta_elt(A), theta_elt(B))
                if theta_mul_lemma61(A, B) != general:
                    return _result(False, f"lemma-6.1 path differs at ({A.entries},{B.entries})")
                n61 += 1
    return _result(True, f"idempotent holds; fast paths agree on {n42}+{n61} applicable pairs")


def c09_distinguished_involutions() -> dict:
    """D at r=2, L=4 is exactly {e, s0, s1}, all certified via a = Delta, and
    the asymptotic ring's identity axioms hold on the window."""
    e, s0, s1 = identity(2), generator(2, 0), generator(2, 1)
    dd = distinguished_involutions(2, 4)
    if dd != (e, s0, s1):
        return _result(False, f"distinguished involutions wrong: {[d.window for d in dd]}")
    for d in dd:
        av = a_bounded(d, 4)
        if not (av.certified and av.value == delta_cap(d)):
            return _result(False, f"certificate a = Delta fails at {d.window}")
    ident = j_identity_hecke(2, 4)
    elems = [w.shift(a) for w in ball(2, 4) for a in (-1, 0, 1)]
    for w in elems:
        tw = j_elt(w)
        if j_mul(ident, tw, 4) != tw or j_mul(tw, ident, 4) != tw:
            return _result(False, f"J identity fails on t_{w.window}")
    rng = random.Random(20250810)
    for _ in range(30):
        x, y, z = (j_elt(rng.choice(elems)) for _ in range(3))
        if j_mul(j_mul(x, y, 4), z, 4) != j_mul(x, j_mul(y, z, 4), 4):
            return _result(False, "J associativity fails")
    return _result(True, f"D = {{e, s0, s1}} certified; identity and associativity on {len(elems)} basis elements")


def c10_lowest_cell_counts() -> dict:
    """The lowest two-sided cell has 4 left cells at (2,2) and 1 at (1,2)."""
    rep22 = lowest_cell(2, 2, 4, (-2, 2))
    if rep22.extra["left_cell_count"] != 4:
        return _result(False, f"(2,2) count = {rep22.extra['left_cell_count']} != 4")
    rep12 = lowest_cell(1, 2, 4, (-2, 2))
    if rep12.extra["left_cell_count"] != 1:
        return _result(False, f"(1,2) count = {rep12.extra['left_cell_count']} != 1")
    return _result(
        True,
        f"left-cell counts 4 and 1 over {rep22.extra['member_count']} and "
        f"{rep12.extra['member_count']} members",
    )


def c11_asymptotic_homomorphism() -> dict:
    """Phi is multiplicative on every certified composable theta-pair of the
    (2,2) L=3 window and sends the unit to the asymptotic identity."""
    win = enumerate_theta(2, 2, 3, (-1, 1))
    ident = j_identity_schur(2, 2, 4)
    img = lusztig_phi_elt(schur_identity(2, 2), 4)
    if img != ident:
        return _result(False, "Phi does not send the unit to the asymptotic identity")
    checked = 0
    for A in win:
        for B in win:
            if A.co != B.ro:
                continue
            lhs = lusztig_phi_elt(theta_mul(theta_elt(A), theta_elt(B)), 4)
            if lhs != j_mul(lusztig_phi_schur(A, 4), lusztig_phi_schur(B, 4), 4):
                return _result(False, f"Phi not multiplicative at ({A.entries},{B.entries})")
            checked += 1
    return _result(True, f"Phi multiplicative on {checked} pairs; unit maps to identity")


def c12_q_suite() -> dict:
    """Q1-Q11, Q13-Q15 all pass on the certified (2,2) L=4 window; skipped
    checks are reported but never counted as passes."""
    out = q_suite(2, 2, 4, (-2, 2))
    required = [f"Q{i}" for i in range(1, 16) if i != 12]
    bad = [q for q in required if out["results"][q] != "pass"]
    if bad or out["results"]["Q12"] != "absent-in-paper":
        return _result(False, f"q-suite statuses: {out['results']}", report=out)
    return _result(True, "all applicable Q-properties pass with zero skips", report=out)


def c13_rank_one_group_ring() -> dict:
    """J(1,1) realizes the group ring of Z: t_{A_j} t_{A_k} = t_{A_{j+k-1}}
    over the omega-window [-3,3]."""
    def single(j: int) -> PeriodicMatrix:
        return PeriodicMatrix(1, ((1, j, 1),))

    window = enumerate_theta(1, 1, 0, (-3, 3))
    if window != tuple(single(j) for j in range(-2, 5)):
        return _result(False, "rank-one window enumeration is wrong")
    checked = 0
    for j in range(-2, 5):
        for k in range(-2, 5):
            if j_mul(j_elt(single(j)), j_elt(single(k)), 2) != j_elt(single(j + k - 1)):
                return _result(False, f"group-ring law fails at ({j},{k})")
            checked += 1
    return _result(True, f"group-ring multiplication table verified on {checked} pairs")


def c14_length_and_bruhat_oracles() -> dict:
    """The closed-form length agrees with BFS word length on balls of radius 6
    (r = 2, 3), and lifting-recursion Bruhat agrees with the subword oracle."""
    for r in (2, 3):
        dist = {identity(r): 0}
        frontier = [identity(r)]
        while frontier:
            nxt = []
            for w in frontier:
                if dist[w] == 6:
                    continue
                for i in range(r):
                    ws = w * generator(r, i)
                    if ws not in dist:
                        dist[ws] = dist[w] + 1
                        nxt.append(ws)
            frontier = nxt
        for w, d in dist.items():
            if w.length != d:
                return _result(False, f"length formula fails at r={r}, {w.window}")

    def subword_lower(w):
        a, word = w.reduced_word()
        out = set()
        for mask in itertools.product((0, 1), repeat=len(word)):
            out.add(from_word(w.r, a, [s for keep, s in zip(mask, word) if keep]))
        return out

    checked = 0
    for r, bound in ((2, 6), (3, 4)):
        elems = ball(r, bound)
        lowers = {w: subword_lower(w) for w in elems}
        for y in elems:
            for w in elems:
                if bruhat_leq(y, w) != (y in lowers[w]):
                    return _result(False, f"Bruhat mismatch at r={r}: {y.window} vs {w.window}")
                checked += 1
    return _result(True, f"length and Bruhat oracles agree ({checked} ordered pairs)")


CRITERIA: list[tuple[str, Callable[[], dict]]] = [
    ("C01-kl-bar-oracle", c01_kl_bar_oracle),
    ("C02-h-positivity-symmetry", c02_h_positive_symmetric),
    ("C03-exact-division", c03_exact_division),
    ("C04-two-route-products", c04_two_route_products),
    ("C05-dimension-statistic", c05_dimension_statistic),
    ("C06-theta-on-parabolic-c", c06_theta_sends_parabolic_c),
    ("C07-bar-fixes-theta", c07_bar_fixes_theta),
    ("C08-idempotent-fast-paths", c08_idempotent_and_fast_paths),
    ("C09-distinguished-involutions", c09_distinguished_involutions),
    ("C10-lowest-cell-counts", c10_lowest_cell_counts),
    ("C11-asymptotic-homomorphism", c11_asymptotic_homomorphism),
    ("C12-q-suite", c12_q_suite),
    ("C13-rank-one-group-ring", c13_rank_one_group_ring),
    ("C14-length-bruhat-oracles", c14_length_and_bruhat_oracles),
]


def run_criterion(name: str) -> dict:
    for cid, fn in CRITERIA:
        if cid == name:
            t0 = time.time()
            out = fn()
            out["id"] = cid
            out["seconds"] = round(time.time() - t0, 2)
            return out
    raise KeyError(f"unknown criterion {name!r}")


def run_all(progress: "Callable[[dict], None] | None" = None) -> list[dict]:
    results = []
    for cid, _fn in CRITERIA:
        out = run_criterion(cid)
        results.append(out)
        if progress is not None:
            progress(out)
    return results
