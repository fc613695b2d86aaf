"""Tests for the Hecke algebra layer.

The KL recursion is not trusted directly: bar-invariance of every C_w over
whole balls (plus rho twists) is the primary oracle, with the degree bound
and positivity/symmetry of the structure constants as further cross-checks.
"""

import inspect
import itertools
import json
import os
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affschur import affperm, hecke
from affschur.affperm import ball, bruhat_leq, from_word, generator, identity, rho
from affschur.errors import BasisMismatch, PeriodMismatch
from affschur.hecke import (
    HeckeElt,
    c_elt,
    c_to_t,
    coset_sum_TD,
    cprime_elt,
    h_bar,
    h_expansion,
    h_mul,
    h_struct,
    is_in_H_IJ,
    j_inv,
    kl_mu,
    kl_poly,
    psi,
    t_elt,
    t_to_c,
    x_lambda,
)
from affschur.laurent import ONE, Q, QINV, T, TINV, ZERO, LaurentPoly, linear, t_pow
from affschur.parabolic import (
    Composition,
    compositions,
    longest_in_parabolic,
    matrix_of,
    plus_rep,
)

E2 = identity(2)
S0 = generator(2, 0)
S1 = generator(2, 1)


def test_quadratic_relation():
    prod = h_mul(t_elt(S0), t_elt(S0))
    assert prod == HeckeElt(2, "T", {E2: Q, S0: Q - 1})


def test_rho_multiplies_freely():
    for w in ball(2, 4):
        assert h_mul(t_elt(rho(2)), t_elt(w)) == t_elt(rho(2) * w)
        assert h_mul(t_elt(w), t_elt(rho(2, -2))) == t_elt(w * rho(2, -2))


def test_lengths_add():
    assert h_mul(t_elt(S0), t_elt(S1)) == t_elt(S0 * S1)


def test_h_mul_associative_randomized():
    rng = random.Random(2)
    elems = ball(2, 4)
    for _ in range(20):
        a, b, c = (t_elt(rng.choice(elems), t_pow(rng.randint(-1, 1))) for _ in range(3))
        assert h_mul(h_mul(a, b), c) == h_mul(a, h_mul(b, c))


def test_bar_examples():
    assert h_bar(t_elt(E2)) == t_elt(E2)
    assert h_bar(t_elt(S0)) == HeckeElt(2, "T", {S0: QINV, E2: QINV - 1})


def test_bar_is_involution():
    rng = random.Random(4)
    elems = ball(2, 5)
    for _ in range(15):
        a = HeckeElt(
            2,
            "T",
            {
                rng.choice(elems).shift(rng.randint(-1, 1)): t_pow(rng.randint(-2, 2))
                for _ in range(3)
            },
        )
        assert h_bar(h_bar(a)) == a


def test_bar_is_ring_map():
    rng = random.Random(6)
    elems = ball(2, 3)
    for _ in range(10):
        a, b = (t_elt(rng.choice(elems)) for _ in range(2))
        assert h_bar(h_mul(a, b)) == h_mul(h_bar(a), h_bar(b))


def _bar_t_by_word(w):
    """T_{w^{-1}}^{-1} = T_{rho^a} T_{s_{i1}}^{-1} ... T_{s_{ik}}^{-1}, replayed over the
    whole reduced word rho^a s_{i1} ... s_{ik} of w."""
    omega, word = w.reduced_word()
    terms = {rho(w.r, omega): ONE}
    for i in word:
        s = generator(w.r, i)
        out = {}
        for u, c in terms.items():
            us = u * s
            # u T_s^{-1} = q^{-1} T_{us} + (q^{-1} - 1) T_u if us > u, else T_{us}
            if us.length > u.length:
                out[us] = out.get(us, ZERO) + c * QINV
                out[u] = out.get(u, ZERO) + c * (QINV - 1)
            else:
                out[us] = out.get(us, ZERO) + c
        terms = out
    return HeckeElt(w.r, "T", terms)


@pytest.mark.parametrize("r,L", [(3, 7), (4, 5)])
def test_bar_t_matches_reduced_word_oracle(r, L):
    for w in ball(r, L):
        for a in (-1, 0, 1):
            for x in (w.shift(a), w * rho(r, a)):
                assert hecke._bar_t(x) == _bar_t_by_word(x), x


def test_bar_t_walks_long_chains_without_recursion():
    # 120 uncached steps down to rho^0 would need 120 nested calls
    w = from_word(2, 0, [0, 1] * 60)
    hecke._ROWS.clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        bar = hecke._bar_t(w)
    finally:
        sys.setrecursionlimit(limit)
    assert bar == _bar_t_by_word(w)


def test_lower_ideal_walks_long_chains_without_recursion():
    # 120 uncached steps down to the identity would need 120 nested calls; in
    # type A~1 the interval [e, w] is w and all 2 l(w) - 1 shorter elements
    w = from_word(2, 0, [0, 1] * 60)
    affperm._lower_coxeter.cache_clear()
    affperm._LOWER.clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        lower = affperm.bruhat_lower(w)
    finally:
        sys.setrecursionlimit(limit)
    assert w.length == 120 and len(lower) == 240
    assert lower == set(ball(2, 119)) | {w}


# A fresh process, so the KL memo is cold: the row of w needs the rows of all
# 119 shorter elements of its descent chain, which a recursion per letter would
# walk as at least 119 nested calls.
_KL_CHAIN = """
import inspect, sys
from affschur import hecke
from affschur.affperm import bruhat_lower, from_word
from affschur.laurent import t_pow
w = from_word(2, 0, [0, 1] * 60)
limit = sys.getrecursionlimit()
sys.setrecursionlimit(len(inspect.stack()) + 40)
try:
    c = hecke.c_elt(w)
finally:
    sys.setrecursionlimit(limit)
# in type A~1 every P_{y,w} with y <= w is 1, so C_w = t^{-l(w)} sum_{y <= w} T_y
assert c == hecke.HeckeElt(2, "T", {y: t_pow(-w.length) for y in bruhat_lower(w)})
# from a cold memo every record was stored by the kernel, into rows it filled
stats = hecke.kl_memo_stats()
rows = len(list(hecke.kl_memo_rows()))
print(w.length, len(c.terms), stats["computed"] == stats["entries"], stats["full_rows"] == rows,
      stats["hits"], min(stats["kernel_memos"].values()) > 0)
"""


def test_kl_rows_fill_long_chains_without_recursion():
    proc = subprocess.run([sys.executable, "-c", _KL_CHAIN], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["120", "240", "True", "True", "0", "True"]


# A fresh process, so no product is memoized: C_x C_y is built from the
# products of every prefix of the descent chain of x, which a recursion per
# letter would walk as l(x) nested calls.
_PRODUCT_CHAIN = """
import inspect, sys
from affschur import hecke
from affschur.affperm import from_word, identity
from affschur.laurent import ONE
x, y = from_word(2, 0, [0, 1] * 30), from_word(2, 1, [1, 0, 1])
long = from_word(2, 0, [0, 1] * 520)
limit = sys.getrecursionlimit()
sys.setrecursionlimit(len(inspect.stack()) + 40)
try:
    short = dict(hecke.h_expansion(x, y))
    chain = dict(hecke.h_expansion(long, identity(2)))
finally:
    sys.setrecursionlimit(limit)
oracle = hecke.t_to_c(hecke.h_mul(hecke.c_elt(x), hecke.c_elt(y)))
print(bool(short), short == dict(oracle.terms), chain == {long: ONE})
"""


def test_c_products_walk_long_chains_without_recursion():
    proc = subprocess.run([sys.executable, "-c", _PRODUCT_CHAIN], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True"]


def _descend_by_recursion(x, f, calls, deps):
    """The reference of affperm.descend: the same induction as a plain
    recursion, logging each base and make call into calls."""
    if x in f:
        return
    if not x.left_descents:
        calls.append(("base", x))
        f[x] = len(calls)
        return
    i = min(x.left_descents)
    xp = x.left(i)
    _descend_by_recursion(xp, f, calls, deps)
    zs = deps(xp, i)
    for z, _ in zs:
        _descend_by_recursion(z, f, calls, deps)
    calls.append(("make", x, i, f[xp], tuple((p, f[p[0]]) for p in zs)))
    f[x] = len(calls)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(
    lambda r: st.tuples(st.just(r), st.lists(st.integers(0, r - 1), max_size=8))))
# two of the few x in ball(3, 8) and ball(4, 6) whose walk meets two missing z at once
@example((3, [0, 1, 2, 0, 1, 2, 0]))
@example((4, [3, 1, 2, 1, 0, 3]))
def test_descend_makes_what_a_recursion_makes_in_its_order(case):
    # f(y) is the number of the call that made y, so each make also shows
    # which f(sy) and f(z) it was handed
    x = from_word(case[0], 0, case[1])
    expected = []
    _descend_by_recursion(x, {}, expected, lambda y, i: hecke._MU_FILTER[y, i])
    f, calls = {}, []

    def deps(y, i):
        assert y in f, f"deps read at {y} before f({y}) is made"
        return hecke._MU_FILTER[y, i]

    def base(y):
        calls.append(("base", y))
        f[y] = len(calls)

    def make(y, i, first, parts):
        calls.append(("make", y, i, first, tuple(parts)))
        f[y] = len(calls)

    assert affperm.descend(x, f.get, base, make, deps) == f[x]
    assert calls == expected


def _assert_shared(values):
    """Equal values among these are one object."""
    first = {}
    for v in values:
        assert first.setdefault(v, v) is v, v


def test_memo_values_and_ideal_elements_are_shared():
    ws = ball(3, 6)
    for w in ws:
        c_elt(w)
    _assert_shared(hecke.kl_memo().values())
    _assert_shared(c for w in ws for c in c_elt(w).terms.values())
    ideals = [affperm.bruhat_lower(w) for w in ws]
    _assert_shared(y for ideal in ideals for y in ideal)
    assert all(h_bar(c_elt(w)) == c_elt(w) for w in ws)
    # the bar table holds each coefficient once, and bar(T_y) reads those objects
    coeffs = hecke._COEFF_IDS.of
    _assert_shared(itertools.chain(coeffs, (c for y in ws for c in hecke._bar_t(y).terms.values())))
    stats = hecke.kl_memo_stats()
    assert stats["distinct_polys"] < 20 < stats["entries"]
    assert stats["shared_elements"] >= len(ws)


def test_arithmetic_leaves_shared_memo_values_unchanged():
    w = from_word(3, 0, [0, 1, 2, 0])
    assert kl_poly(identity(3), w) == 1 + Q
    records = {key: p.to_json() for key, p in hecke.kl_memo().items()}
    p = kl_poly(identity(3), w)
    c = c_elt(w)
    results = [p + p, p - 1, 1 - p, -p, p * Q, 3 * p, p**2, p.bar(), p.neg_t(),
               c + c, c - c, c.scale(T), h_bar(c), t_to_c(c), j_inv(c), c_to_t(t_to_c(c))]
    assert results[0] == 2 + 2 * Q and h_bar(c) == c
    assert kl_poly(identity(3), w) is p and p == 1 + Q
    assert {key: p.to_json() for key, p in hecke.kl_memo().items()} == records


def test_kl_memo_is_a_copy_and_its_rows_are_read_only():
    w = from_word(3, 0, [0, 1, 2, 0])
    c_elt(w)
    memo = hecke.kl_memo()
    assert hecke.kl_memo_stats()["entries"] == len(memo) > 0
    before = dict(memo)
    memo[identity(3), w] = ZERO
    memo.clear()
    assert hecke.kl_memo() == before and kl_poly(identity(3), w) == 1 + Q
    rows = dict(hecke.kl_memo_rows())
    assert rows[w][identity(3)] == 1 + Q
    with pytest.raises(TypeError):
        rows[w][identity(3)] = ZERO


def test_h_expansion_hands_out_the_stored_product_read_only():
    x, y = from_word(3, 0, [0, 1]), from_word(3, 0, [2, 1, 0])
    exp = h_expansion(x, y)
    assert exp is hecke._PRODUCTS[x, y] and h_expansion(x, y) is exp
    assert list(exp) == sorted(exp, key=lambda z: z.sort_key)
    with pytest.raises(TypeError):
        exp[x] = ONE
    assert exp == _t_basis_route(x, y)


def test_threads_barring_new_elements_share_one_id_table():
    # more threads than cores under a 1 us switch interval bar disjoint new
    # elements: in each round, their shares of a ball under a rho power no other
    # test uses, so their rows meet the same new keys at once.  A lost race in an
    # id table gives one key two ids, or a code naming another pair.
    count = (os.cpu_count() or 1) + 2
    rounds = [[w.shift(a) for w in ball(3, 4)] for a in range(40, 80)]
    jobs = [[[c_elt(w) for w in ws[k::count]] for ws in rounds] for k in range(count)]
    results = [[] for _ in jobs]
    start = threading.Barrier(count)

    def run(job, out):
        for part in job:
            start.wait(timeout=60)
            out.extend(h_bar(a) for a in part)

    threads = [threading.Thread(target=run, args=pair) for pair in zip(jobs, results)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for job, out in zip(jobs, results):
        assert out == [_h_bar_by_word(a) for part in job for a in part]
    for table in (hecke._KEY_IDS, hecke._COEFF_IDS, hecke._CODES):
        assert len(table) == len(table.of)
        assert all(table[key] == i for i, key in enumerate(table.of))


@st.composite
def t_combination_pairs(draw):
    r = draw(st.integers(2, 4))
    coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-2, 2), max_size=2).map(LaurentPoly)
    perms = st.builds(
        lambda a, word: from_word(r, a, word),
        st.integers(-1, 1),
        st.lists(st.integers(0, r - 1), max_size=4),
    )
    combo = st.dictionaries(perms, coeffs, max_size=3).map(lambda t: HeckeElt(r, "T", t))
    return draw(combo), draw(combo)


@settings(max_examples=60, deadline=None, database=None)
@given(t_combination_pairs())
def test_bar_is_involutive_ring_map(pair):
    a, b = pair
    assert h_bar(h_bar(a)) == a
    assert h_bar(h_mul(a, b)) == h_mul(h_bar(a), h_bar(b))


def _bar_sum_by_word(a, factors):
    """sum_w factors[w] T_{w^{-1}}^{-1}, each T_{w^{-1}}^{-1} replayed over a reduced word."""
    return HeckeElt(a.r, "T", linear(factors, lambda w: _bar_t_by_word(w).terms.items()))


def _h_bar_by_word(a):
    return _bar_sum_by_word(a, {w: c.bar() for w, c in a.terms.items()})


def _psi_by_word(a):
    return _bar_sum_by_word(a, {w: c.neg_t() * t_pow(2 * w.length, (-1) ** w.length)
                                for w, c in a.terms.items()})


# Integers whose LaurentPoly constants collide in hash under CPython: hash(-1) ==
# hash(-2), and integers congruent modulo 2**61 - 1 hash alike.
_HASH_TWINS = [-1, -2, 10**30, 10**30 + 2**61 - 1, -(10**30), -(10**30) - 2**61 + 1]


@st.composite
def bar_inputs(draw):
    """A T-combination at r = 2, 3 or 4 on rho-shifted keys.  Its coefficients
    come from a small pool: one object may serve several keys, be copied to an
    equal but distinct object, or collide in hash with another pool entry."""
    r = draw(st.integers(2, 4))
    small = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), min_size=1, max_size=3)
    twin = st.builds(lambda e, c: {e: c}, st.integers(-2, 2), st.sampled_from(_HASH_TWINS))
    pool = draw(st.lists(st.one_of(small, twin).map(LaurentPoly), min_size=1, max_size=4))

    def pick(choice):
        i, copy = choice
        p = pool[i % len(pool)]
        return LaurentPoly(dict(p.items())) if copy else p

    perms = st.builds(lambda a, word: from_word(r, a, word), st.integers(-2, 2),
                      st.lists(st.integers(0, r - 1), max_size=6))
    coeffs = st.tuples(st.integers(0, 3), st.booleans()).map(pick)
    return HeckeElt(r, "T", draw(st.dictionaries(perms, coeffs, max_size=6)))


_S01, _S10 = from_word(3, 0, [0, 1]), from_word(3, 0, [1, 0])


@settings(max_examples=80, deadline=None, database=None)
@example(HeckeElt(3, "T", {}))
@example(HeckeElt(3, "T", {_S01: -1, _S10: -2}))
@example(HeckeElt(3, "T", {_S01.shift(1): 10**30, _S10.shift(1): 10**30 + 2**61 - 1}))
@given(bar_inputs())
def test_bar_and_psi_match_the_reduced_word_route(a):
    bar = h_bar(a)
    assert bar == _h_bar_by_word(a)
    assert psi(a) == _psi_by_word(a)
    # barring bar(a) cancels back down to a (to nothing for a = 0)
    assert h_bar(bar) == a


def test_kl_poly_examples():
    for w in ball(2, 5):
        assert kl_poly(w, w) == ONE
    # dihedral KL polynomials are all 1 on comparable pairs
    for w in ball(2, 8):
        for y in ball(2, 8):
            expected = ONE if bruhat_leq(y, w) else ZERO
            assert kl_poly(y, w) == expected
    assert kl_poly(S0, S1) == ZERO


_REFERENCE_KL: dict = {}


def _kl_by_pairs(y, w):
    """P_{y,w} for y, w in W', one pair at a time, by the left-multiplication
    recursion of Kazhdan-Lusztig: for s the lowest left descent of w and v = sw,
    P_{y,w} = q^{1-c} P_{sy,v} + q^c P_{y,v} - sum mu(z,v) t^{l(w)-l(z)} P_{y,z}
    over z < v with sz < z and y <= z, where c = 1 if sy < y and c = 0 otherwise."""
    key = (y, w)
    if key in _REFERENCE_KL:
        return _REFERENCE_KL[key]
    if y == w:
        val = ONE
    elif not bruhat_leq(y, w):
        val = ZERO
    else:
        i = min(w.left_descents)
        s = generator(w.r, i)
        v = s * w
        a, b = _kl_by_pairs(s * y, v), _kl_by_pairs(y, v)
        val = a + Q * b if i in y.left_descents else Q * a + b
        for z in affperm.bruhat_lower(v):
            d = v.length - z.length
            if d % 2 and i in z.left_descents and bruhat_leq(y, z):
                mu = _kl_by_pairs(z, v).coeff(d - 1)
                if mu:
                    val = val - mu * t_pow(w.length - z.length) * _kl_by_pairs(y, z)
    _REFERENCE_KL[key] = val
    return val


@st.composite
def kl_queries(draw):
    """w in W' at r = 2..5 with l(w) <= 8, a rho-shift, and elements y not below w."""
    r = draw(st.integers(2, 5))
    words = st.lists(st.integers(0, r - 1), max_size=8)
    w = from_word(r, 0, draw(words))
    others = [from_word(r, 0, word) for word in draw(st.lists(words, max_size=4))]
    return w, draw(st.integers(-2, 2)), [y for y in others if not bruhat_leq(y, w)]


@settings(max_examples=100, deadline=None, database=None)
@example((from_word(3, 0, [0, 1, 2, 0, 1, 2, 0, 1]), 1, [from_word(3, 0, [2, 1, 0, 2])]))
@given(kl_queries())
def test_kl_poly_matches_the_per_pair_recursion(query):
    w, a, above = query
    shifted = w.shift(a)
    for y in affperm.bruhat_lower(w):
        assert kl_poly(y.shift(a), shifted) == _kl_by_pairs(y, w), (y, w)
        # another rho part is never below w
        assert kl_poly(y.shift(a + 1), shifted) == ZERO
    for y in above:
        assert kl_poly(y.shift(a), shifted) == ZERO == _kl_by_pairs(y, w), (y, w)


def test_kl_poly_rho_twist_invariance():
    for w in ball(2, 4):
        for y in ball(2, 4):
            assert kl_poly(y.shift(3), w.shift(3)) == kl_poly(y, w)
    assert kl_poly(S0.shift(1), S0) == ZERO


def test_kl_mu_examples():
    assert kl_mu(S0, S0 * S1) == 1  # length gap 1, P = 1
    assert kl_mu(S1, S1) == 0
    assert kl_mu(E2, S0 * S1 * S0) == 0  # P = 1 but needed degree 1


def test_c_elt_examples():
    assert c_elt(S0) == HeckeElt(2, "T", {E2: TINV, S0: TINV})
    assert c_elt(E2) == t_elt(E2)
    # C_{w_{0,mu}} = t^{-l(w_{0,mu})} x_mu
    for lam in compositions(2, 3) + compositions(3, 3):
        w0 = longest_in_parabolic(lam)
        assert c_elt(w0) == x_lambda(lam).scale(t_pow(-w0.length))


def test_c_elt_rho_twist():
    for w in ball(2, 4):
        assert c_elt(w.shift(2)) == h_mul(t_elt(rho(2, 2)), c_elt(w))


@pytest.mark.parametrize("r,bound", [(2, 8), (3, 5)])
def test_bar_invariance_of_c_basis(r, bound):
    for w in ball(r, bound):
        cw = c_elt(w)
        assert h_bar(cw) == cw


def test_bar_invariance_rho_twists():
    for w in ball(2, 5):
        for a in (-2, 1):
            cw = c_elt(w.shift(a))
            assert h_bar(cw) == cw


@pytest.mark.parametrize("r,bound", [(2, 8), (3, 5)])
def test_kl_degree_bound(r, bound):
    for w in ball(r, bound):
        for y in ball(r, bound):
            if y == w or not bruhat_leq(y, w):
                continue
            p = kl_poly(y, w)
            assert p.in_q()
            assert p.min_degree() >= 0
            assert p.degree() <= w.length - y.length - 1


def test_basis_conversion_roundtrip():
    rng = random.Random(8)
    elems = ball(2, 5)
    for _ in range(10):
        a = HeckeElt(
            2,
            "T",
            {rng.choice(elems): t_pow(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3)},
        )
        assert c_to_t(t_to_c(a)) == a
    assert t_to_c(t_elt(E2)) == HeckeElt(2, "C", {E2: ONE})
    assert c_to_t(HeckeElt(2, "C", {S0: ONE})) == HeckeElt(2, "T", {E2: TINV, S0: TINV})


def test_h_struct_examples():
    assert h_struct(S0, S0, S0) == T + TINV
    assert h_struct(S0, S1 * S0, S0) == ONE
    assert h_struct(S0, S1 * S0, S0 * S1 * S0) == ONE
    for y in ball(2, 3):
        for z in ball(2, 3):
            assert h_struct(E2, y, z) == (ONE if y == z else ZERO)


@pytest.mark.parametrize("r,bound", [(2, 5), (3, 3)])
def test_h_positivity_and_symmetry(r, bound):
    for x in ball(r, bound):
        for y in ball(r, bound):
            for z, h in h_expansion(x, y).items():
                assert h.is_nonnegative(), (x, y, z, h)
                assert h.is_bar_symmetric(), (x, y, z, h)


def _t_basis_route(x, y):
    return t_to_c(h_mul(c_elt(x), c_elt(y))).terms


@pytest.mark.parametrize("r,bound", [(2, 6), (3, 4), (4, 3)])
def test_h_expansion_matches_t_basis_route(r, bound):
    # h_expansion multiplies in the C-basis through the W-graph; the oracle
    # multiplies in the T-basis and peels the product back triangularly
    elems = ball(r, bound)
    for x in elems:
        for y in elems:
            assert h_expansion(x, y) == _t_basis_route(x, y), (x, y)


def test_h_expansion_matches_t_basis_route_rho_twisted():
    rng = random.Random(7)
    for r, bound in ((2, 4), (3, 3)):
        elems = ball(r, bound)
        for _ in range(40):
            x = rng.choice(elems).shift(rng.randint(-2, 2))
            y = rng.choice(elems) * rho(r, rng.randint(-2, 2))
            assert h_expansion(x, y) == _t_basis_route(x, y), (x, y)


def test_h_expansion_rejects_mismatched_periods():
    # the identity and a left-descent pair would otherwise never reach a product
    for x, y in ((identity(2), identity(3)), (from_word(2, 0, [0]), from_word(3, 0, [0]))):
        with pytest.raises(PeriodMismatch, match="periods 2 and 3 differ"):
            h_expansion(x, y)


def test_h_inverse_symmetry():
    for x in ball(2, 4):
        for y in ball(2, 4):
            exp = h_expansion(x, y)
            inv = h_expansion(y.inverse, x.inverse)
            for z, h in exp.items():
                assert inv.get(z.inverse, ZERO) == h


def test_h_rho_equivariance():
    for x in ball(2, 3):
        for y in ball(2, 3):
            base = h_expansion(x, y)
            shifted = h_expansion(x.shift(2), y)
            for z, h in base.items():
                assert shifted.get(z.shift(2), ZERO) == h


def test_c_product_associativity_randomized():
    rng = random.Random(12)
    elems = [w.shift(a) for w in ball(2, 3) for a in (-1, 0, 1)]
    for _ in range(6):
        x, y, z = (c_elt(rng.choice(elems)) for _ in range(3))
        assert h_mul(h_mul(x, y), z) == h_mul(x, h_mul(y, z))


def test_x_lambda_examples():
    assert x_lambda(Composition(2, (1, 1))) == t_elt(E2)
    assert x_lambda(Composition(2, (2, 0))) == HeckeElt(2, "T", {E2: ONE, S1: ONE})


def test_coset_sum():
    A = matrix_of(Composition(2, (2, 0)), S0, Composition(2, (2, 0)))
    expected = {S0: ONE, S1 * S0: ONE, S0 * S1: ONE, S1 * S0 * S1: ONE}
    assert coset_sum_TD(A) == HeckeElt(2, "T", expected)


def test_j_and_psi_examples():
    assert j_inv(t_elt(E2)) == t_elt(E2)
    assert psi(t_elt(E2)) == t_elt(E2)
    assert psi(t_elt(S0)) == HeckeElt(2, "T", {S0: LaurentPoly(-1), E2: Q - 1})
    # Psi is an involution
    rng = random.Random(3)
    elems = ball(2, 4)
    for _ in range(10):
        a = t_elt(rng.choice(elems), t_pow(rng.randint(-2, 2)))
        assert psi(psi(a)) == a


def test_sign_conventions_C_and_Cprime():
    # C'_x = Psi(C_x) and C_w = (-1)^{l(w)} j(C'_w)
    for w in ball(2, 5) + ball(3, 3):
        cp = cprime_elt(w)
        assert psi(c_elt(w)) == cp
        sign = -1 if w.length % 2 else 1
        assert j_inv(cp).scale(sign) == c_elt(w)
        assert h_bar(cp) == cp


def test_is_in_H_IJ():
    lam = Composition(2, (2, 0))
    assert is_in_H_IJ(x_lambda(lam), lam, lam)
    assert not is_in_H_IJ(t_elt(S0), lam, lam)
    # C_{w+} lies in H_{lam,mu} for windowed triples
    for lamu in compositions(2, 2):
        for mu in compositions(2, 2):
            for u in (identity(2), S0, rho(2)):
                wp = plus_rep(matrix_of(lamu, u, mu))
                assert is_in_H_IJ(c_elt(wp), lamu, mu)


def test_lemma_products_are_plus_reps():
    # nonzero h_{x,y,z} with x, y maximal double-coset reps forces z maximal
    lam = Composition(2, (2, 0))
    omega = Composition(2, (1, 1))
    for mu in (lam, omega):
        for nu in (lam, omega):
            for u in (identity(2), S0, rho(2)):
                x = plus_rep(matrix_of(lam, u, mu))
                for v in (identity(2), S1, rho(2, -1)):
                    y = plus_rep(matrix_of(mu, v, nu))
                    for z in h_expansion(x, y):
                        assert plus_rep(matrix_of(lam, z, nu)) == z


def test_basis_mismatch_errors():
    c = t_to_c(t_elt(S0))
    with pytest.raises(BasisMismatch):
        h_mul(c, c)
    with pytest.raises(BasisMismatch):
        h_bar(c)


def test_hecke_json_roundtrip():
    a = HeckeElt(2, "T", {S0: T + TINV, rho(2): ONE})
    assert HeckeElt.from_json(a.to_json()) == a
    assert a.to_json()["terms"][0]["window"] == [2, 3]


def test_is_in_H_IJ_r3_plus_reps():
    lam = Composition(3, (2, 1, 0))
    mu = Composition(3, (1, 2, 0))
    wp = plus_rep(matrix_of(lam, generator(3, 0), mu))
    assert is_in_H_IJ(c_elt(wp), lam, mu)
    assert not is_in_H_IJ(t_elt(wp), lam, mu)


# Each run is a fresh process, so the memo holds exactly what its threads put
# there.  The threads start at a barrier under a 1 us switch interval.  In the
# c_elt job they all walk ball(3, 6) in one order, racing to create the same
# memo rows; in the insert job thread k puts its own y into each of 20,000 new
# rows, so a row lost to a race shows as missing records.
_THREADED_MEMO = """
import json, sys, threading
from affschur import hecke
from affschur.affperm import AffPerm, ball
from affschur.laurent import ZERO
job, count = sys.argv[1], int(sys.argv[2])
if job == "c_elt":
    ws = list(ball(3, 6))
    def work(k):
        for w in ws:
            hecke.c_elt(w)
else:
    ws = [AffPerm(2, (1 + 2 * j, 2 - 2 * j)) for j in range(10**6, 10**6 + 20_000)]
    def work(k):
        y = AffPerm(2, (1 + 2 * k, 2 - 2 * k))
        for w in ws:
            hecke.kl_memo_insert(y, w, ZERO)
start = threading.Barrier(count)
def run(k):
    start.wait()
    work(k)
threads = [threading.Thread(target=run, args=(k,)) for k in range(count)]
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
assert not any(t.is_alive() for t in threads)
records = sorted([w.window, y.window, p.to_json()] for (y, w), p in hecke.kl_memo().items())
print(json.dumps([records, hecke.kl_memo_stats()["entries"]]))
"""


def _threaded_memo(job, threads):
    proc = subprocess.run([sys.executable, "-c", _THREADED_MEMO, job, str(threads)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_threads_sharing_the_memo_lose_no_records():
    records, entries = _threaded_memo("c_elt", 1)
    assert len(records) == entries > 1000
    assert _threaded_memo("c_elt", 4) == [records, entries]
    records, entries = _threaded_memo("insert", 4)
    assert len(records) == entries == 4 * 20_000


# Runs in a fresh process because the KL memo table is process-wide.  The
# digest hashes every memo record, serialized as KLCache.save_new writes it,
# so a change to the recursion's memo keys (zero entries included) fails here.
_GOLDEN_MEMO = """
import hashlib, json
from affschur.affperm import ball
from affschur.hecke import c_elt, kl_memo
for r, L in ((3, 7), (4, 5)):
    for w in ball(r, L):
        c_elt(w)
h = hashlib.sha256()
items = sorted(((w.r, y.window, w.window, p) for (y, w), p in kl_memo().items()),
               key=lambda t: t[:3])
for r, y, w, p in items:
    rec = {"r": r, "y": list(y), "w": list(w), "P": p.to_json()}
    h.update((json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\\n").encode())
print(len(items), h.hexdigest()[:16])
"""


def test_golden_kl_memo():
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_MEMO], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["5329", "d217b1339789b14b"]


# The lazy path: P_{1,w} and Delta(w) asked for one w at a time, with no C_w
# built first, so the recursion alone decides which records it computes.  The
# digest covers the values only, not the memo records behind them.
_GOLDEN_LAZY = """
import hashlib, json
from affschur.affperm import ball, identity
from affschur.asymptotic import delta_cap
from affschur.hecke import kl_poly
h = hashlib.sha256()
for r, L in ((3, 8), (4, 5)):
    for w in ball(r, L):
        rec = [r, list(w.window), kl_poly(identity(r), w).to_json(), delta_cap(w)]
        h.update((json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\\n").encode())
print(h.hexdigest()[:16])
"""


def test_golden_lazy_kl_path():
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_LAZY], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["f40b1f90707d2e74"]


# The C-basis product memo: every product C_u C_v the W-graph rule forms, in
# the order it was made, with its terms in the order they are handed out.  A
# change to the order of the descent walk, or to which products it makes,
# fails here even when every value stays right.
_GOLDEN_PRODUCTS = """
import hashlib, json
from affschur import hecke
from affschur.affperm import ball
from affschur.asymptotic import q_suite
elems = ball(3, 4)
for x in elems:
    for y in elems:
        hecke.h_expansion(x, y)
q_suite(3, 2, 2, (0, 0))
h = hashlib.sha256()
for (u, v), terms in hecke._PRODUCTS.items():
    rec = [list(u.window), list(v.window), [[list(z.window), c.to_json()] for z, c in terms.items()]]
    h.update((json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\\n").encode())
print(len(hecke._PRODUCTS), h.hexdigest()[:16])
"""


def test_golden_products_memo():
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_PRODUCTS], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["978", "1465eac1aff8f017"]


# The lower-ideal memo and the bar table, both filled along descent chains: the
# ideals in the order they were stored (those of the chains included), and
# each stored bar row as the element it reads back.  A change to which chains
# are walked, or to the order they are filled in, fails here.
_GOLDEN_DESCENTS = """
import hashlib, json
from affschur import affperm, hecke
from affschur.affperm import ball, bruhat_lower, from_word, rho
from affschur.hecke import c_elt
for w in ball(3, 6):
    bruhat_lower(w)
bruhat_lower(from_word(2, 0, [0, 1] * 40))
for w in ball(4, 4):
    c_elt(w)
for w in ball(3, 5):
    for a in (-1, 0, 1):
        hecke._bar_t(w.shift(a))
        hecke._bar_t(w * rho(3, a))
h = hashlib.sha256()
for w, below in affperm._LOWER.items():
    rec = [list(w.window), sorted(list(y.window) for y in below)]
    h.update((json.dumps(rec, separators=(",", ":")) + "\\n").encode())
for w in sorted(hecke._ROWS, key=lambda w: (w.r, w.window)):
    rec = [list(w.window), hecke._bar_t(w).to_json()]
    h.update((json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\\n").encode())
print(len(affperm._LOWER), len(hecke._ROWS), h.hexdigest()[:16])
"""


def test_golden_lower_ideals_and_bar_table():
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_DESCENTS], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["214", "138", "a9f061fa8c5fcb67"]


@pytest.mark.parametrize("r,L", [(3, 6), (4, 4)])
def test_mu_list_matches_brute_force(r, L):
    for w in ball(r, L):
        brute = {(z, kl_mu(z, w)) for z in affperm.bruhat_lower(w)}
        assert set(hecke._mu_list(w)) == {(z, mu) for z, mu in brute if mu}
        # the shared mu filter of the W-graph rule: the z with s_i z < z
        for i in range(r):
            assert set(hecke._MU_FILTER[w, i]) == {
                (z, mu) for z, mu in brute if mu and z.left(i).length < z.length}
