"""Tests for compositions, double cosets, and the matrix bijection."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affschur.affperm import from_word, generator, identity, rho
from affschur.errors import InvalidMatrix
from affschur.parabolic import (
    Composition,
    CosetTriple,
    PeriodicMatrix,
    compositions,
    d_A_combinatorial,
    d_A_coxeter,
    double_coset,
    enumerate_theta,
    is_max_double_rep,
    is_min_double_rep,
    longest_in_parabolic,
    matrix_of,
    matrix_of_triple,
    min_double_rep,
    plus_rep,
    sigma_plus,
    triple_of_matrix,
    young_elements,
)

OMEGA2 = Composition(2, (1, 1))
TWO0 = Composition(2, (2, 0))
ZERO2 = Composition(2, (0, 2))


def test_composition_basics():
    lam = Composition(3, (2, 0, 1))
    assert lam.r == 3
    assert lam.gens == {1}
    assert OMEGA2.gens == frozenset()
    assert TWO0.gens == {1}
    with pytest.raises(InvalidMatrix):
        Composition(2, (1, -1))
    with pytest.raises(InvalidMatrix):
        Composition(2, (0, 0))


def test_block_indexing():
    lam = Composition(2, (1, 1))
    # blocks are singletons {j} here
    for p in range(-5, 6):
        j = lam.block_of(p)
        assert lam.block_start(j) == p
    two = Composition(2, (2, 0))
    assert two.block_of(1) == 1 and two.block_of(2) == 1
    assert two.block_of(3) == 3 and two.block_of(0) == -1
    assert two.block_start(1) == 1 and two.block_size(1) == 2
    assert two.block_size(2) == 0


def test_young_elements():
    assert young_elements(OMEGA2) == {identity(2)}
    s1 = generator(2, 1)
    assert young_elements(TWO0) == {identity(2), s1}
    assert young_elements(ZERO2) == {identity(2), s1}
    lam = Composition(2, (2, 1))
    assert len(young_elements(lam)) == math.factorial(2)
    full = Composition(1, (3,))
    assert len(young_elements(full)) == 6
    assert all(w.omega_degree == 0 for w in young_elements(full))


def test_longest_in_parabolic():
    assert longest_in_parabolic(OMEGA2).is_identity()
    assert longest_in_parabolic(TWO0) == generator(2, 1)
    w0 = longest_in_parabolic(Composition(1, (3,)))
    assert w0 == from_word(3, 0, [1, 2, 1])
    assert w0.length == 3
    assert (w0 * w0).is_identity()
    for lam in compositions(3, 3):
        w0 = longest_in_parabolic(lam)
        assert w0.length == sum(p * (p - 1) // 2 for p in lam.parts)
        assert (w0 * w0).is_identity()


def test_min_double_rep():
    s0, s1 = generator(2, 0), generator(2, 1)
    assert min_double_rep(s1, TWO0, TWO0).is_identity()
    assert min_double_rep(s0, OMEGA2, OMEGA2) == s0
    assert min_double_rep(s1 * s0 * s1, TWO0, TWO0) == s0
    assert is_min_double_rep(s0, TWO0, TWO0)
    assert not is_min_double_rep(s1 * s0, TWO0, TWO0)


def test_double_coset_and_plus_rep():
    s0, s1 = generator(2, 0), generator(2, 1)
    t = CosetTriple(TWO0, s0, TWO0)
    assert double_coset(t) == {s0, s1 * s0, s0 * s1, s1 * s0 * s1}
    assert plus_rep(t) == s1 * s0 * s1
    assert plus_rep(t).length == 3

    t2 = CosetTriple(TWO0, identity(2), TWO0)
    assert double_coset(t2) == {identity(2), s1}
    assert plus_rep(t2) == s1

    t3 = CosetTriple(OMEGA2, s0, OMEGA2)
    assert double_coset(t3) == {s0}
    assert plus_rep(t3) == s0

    # (lam, e, lam)+ = w_{0,lam}
    for lam in compositions(2, 3):
        t = CosetTriple(lam, identity(3), lam)
        assert plus_rep(t) == longest_in_parabolic(lam)


def test_plus_rep_has_full_descents():
    for lam in compositions(2, 2):
        for mu in compositions(2, 2):
            for u in (identity(2), generator(2, 0), rho(2)):
                w = min_double_rep(u, lam, mu)
                t = CosetTriple(lam, w, mu)
                p = plus_rep(t)
                assert lam.gens <= p.left_descents
                assert mu.gens <= p.right_descents


@st.composite
def coset_cases(draw):
    """(lam, w, mu) with r in 1..4, n in 1..3 and w a random word times a rho-power."""
    r = draw(st.integers(1, 4))
    comps = compositions(draw(st.integers(1, 3)), r)
    lam, mu = draw(st.sampled_from(comps)), draw(st.sampled_from(comps))
    word = draw(st.lists(st.integers(0, r - 1), max_size=6)) if r >= 2 else []
    return lam, from_word(r, draw(st.integers(-2, 2)), word), mu


@settings(max_examples=80, deadline=None, database=None)
@given(coset_cases())
def test_greedy_coset_ends_match_enumeration(case):
    lam, w, mu = case
    t = CosetTriple(lam, min_double_rep(w, lam, mu), mu)
    coset = double_coset(t)
    assert w in coset
    top = plus_rep(t)
    lengths = [x.length for x in coset]
    assert [x for x in coset if x.length == min(lengths)] == [t.w]
    assert [x for x in coset if x.length == max(lengths)] == [top]
    for x in coset:
        assert is_min_double_rep(x, lam, mu) == (x == t.w)
        assert is_max_double_rep(x, lam, mu) == (x == top)
    A = matrix_of_triple(t)
    assert triple_of_matrix(A) == t
    assert d_A_combinatorial(A) == d_A_coxeter(A)
    # the matrix is a function of the coset, so any element may index it
    for x in coset:
        assert matrix_of(lam, x, mu) == A


def test_matrix_of_triple_examples():
    lam = Composition(2, (2, 1))
    t = CosetTriple(lam, identity(3), lam)
    assert matrix_of_triple(t) == PeriodicMatrix(2, ((1, 1, 2), (2, 2, 1)))

    s0, s1 = generator(2, 0), generator(2, 1)
    m0 = matrix_of_triple(CosetTriple(OMEGA2, s0, OMEGA2))
    assert m0 == PeriodicMatrix(2, ((1, 0, 1), (2, 3, 1)))
    m1 = matrix_of_triple(CosetTriple(OMEGA2, s1, OMEGA2))
    assert m1 == PeriodicMatrix(2, ((1, 2, 1), (2, 1, 1)))


def test_matrix_row_column_sums():
    A = PeriodicMatrix(2, ((1, 0, 1), (2, 3, 1)))
    assert A.ro == OMEGA2
    assert A.co == OMEGA2
    assert A.r == 2
    assert A.entry(1, 0) == 1 and A.entry(3, 2) == 1 and A.entry(1, 1) == 0


def test_triple_of_matrix_examples():
    lam = Composition(2, (2, 1))
    diag = PeriodicMatrix.diagonal(lam)
    t = triple_of_matrix(diag)
    assert t.lam == lam and t.mu == lam and t.w.is_identity()

    A = PeriodicMatrix(2, ((1, 0, 1), (2, 3, 1)))
    assert triple_of_matrix(A).w == generator(2, 0)
    B = PeriodicMatrix(2, ((1, 2, 1), (2, 1, 1)))
    assert triple_of_matrix(B).w == generator(2, 1)


@pytest.mark.parametrize("n,r", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_roundtrip_both_ways(n, r):
    mats = enumerate_theta(n, r, 3, (-2, 2))
    assert mats
    for A in mats:
        t = triple_of_matrix(A)
        assert matrix_of_triple(t) == A
    for lam in compositions(n, r):
        for mu in compositions(n, r):
            for u in (identity(r), rho(r), rho(r, -1)):
                w = min_double_rep(u, lam, mu)
                t = CosetTriple(lam, w, mu)
                assert triple_of_matrix(matrix_of_triple(t)) == t


def test_transpose_is_inverse_triple():
    for A in enumerate_theta(2, 2, 3, (-2, 2)):
        t = triple_of_matrix(A)
        At = A.transpose()
        tt = triple_of_matrix(At)
        assert tt.lam == t.mu and tt.mu == t.lam
        assert tt.w == min_double_rep(t.w.inverse, t.mu, t.lam)
        assert sigma_plus(At) == sigma_plus(A).inverse
        assert At.transpose() == A


def test_d_A_examples():
    for lam in compositions(2, 3):
        diag = PeriodicMatrix.diagonal(lam)
        assert d_A_combinatorial(diag) == 0
        assert d_A_coxeter(diag) == 0
    A = PeriodicMatrix(2, ((1, 0, 1), (2, 3, 1)))
    assert d_A_combinatorial(A) == 1
    assert d_A_coxeter(A) == 1
    B = PeriodicMatrix(2, ((1, 2, 1), (2, 1, 1)))
    assert d_A_combinatorial(B) == 1
    assert d_A_coxeter(B) == 1


@pytest.mark.parametrize("n,r,bound", [(1, 2, 5), (2, 2, 5), (2, 3, 4), (3, 3, 4)])
def test_d_A_two_routes_agree(n, r, bound):
    for A in enumerate_theta(n, r, bound):
        assert d_A_combinatorial(A) == d_A_coxeter(A)


def test_enumerate_theta_small():
    assert enumerate_theta(2, 2, 0, (0, 0)) == (
        PeriodicMatrix.diagonal(OMEGA2),
    )
    mats1 = enumerate_theta(2, 2, 1, (-1, 1))
    assert PeriodicMatrix.diagonal(TWO0) in mats1
    assert PeriodicMatrix.diagonal(ZERO2) in mats1
    assert PeriodicMatrix(2, ((1, 0, 1), (2, 3, 1))) in mats1  # (omega, s0, omega)
    assert PeriodicMatrix(2, ((1, 0, 1), (2, 1, 1))) in mats1  # (omega, rho, omega)

    mats11 = enumerate_theta(1, 1, 0, (-1, 1))
    assert mats11 == (
        PeriodicMatrix(1, ((1, 0, 1),)),
        PeriodicMatrix(1, ((1, 1, 1),)),
        PeriodicMatrix(1, ((1, 2, 1),)),
    )


def test_coset_size_bound():
    for lam in compositions(2, 3):
        for mu in compositions(2, 3):
            w = min_double_rep(rho(3), lam, mu)
            t = CosetTriple(lam, w, mu)
            bound = len(young_elements(lam)) * len(young_elements(mu))
            assert len(double_coset(t)) <= bound


def test_matrix_json_roundtrip():
    A = PeriodicMatrix(2, ((1, 0, 1), (2, 3, 1)))
    assert A.to_json() == {"n": 2, "r": 2, "entries": [[1, 0, 1], [2, 3, 1]]}
    assert PeriodicMatrix.from_json(A.to_json()) == A
    with pytest.raises(InvalidMatrix):
        PeriodicMatrix.from_json({"n": 2, "r": 5, "entries": [[1, 0, 1]]})
