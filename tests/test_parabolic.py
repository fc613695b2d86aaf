"""Tests for compositions, double cosets, and the matrix bijection."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affschur.affperm import from_word, generator, identity, rho
from affschur.errors import InvalidMatrix
from affschur.parabolic import (
    Composition,
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
    min_double_rep,
    min_rep,
    plus_rep,
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
    for n, parts in ((2, ("1", 1)), (2, (True, 1)), (2.0, (1, 1))):
        with pytest.raises(TypeError):
            Composition(n, parts)
    with pytest.raises(TypeError):
        PeriodicMatrix(2, ((1, "1", 1), (2, 2, 1)))


@pytest.mark.parametrize("n", [0, -1])
def test_compositions_reject_nonpositive_n(n):
    with pytest.raises(InvalidMatrix):
        compositions(n, 2)


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
    A = matrix_of(TWO0, s0, TWO0)
    assert double_coset(A) == {s0, s1 * s0, s0 * s1, s1 * s0 * s1}
    assert plus_rep(A) == s1 * s0 * s1
    assert plus_rep(A).length == 3

    A2 = matrix_of(TWO0, identity(2), TWO0)
    assert double_coset(A2) == {identity(2), s1}
    assert plus_rep(A2) == s1

    A3 = matrix_of(OMEGA2, s0, OMEGA2)
    assert double_coset(A3) == {s0}
    assert plus_rep(A3) == s0

    # (lam, e, lam)+ = w_{0,lam}
    for lam in compositions(2, 3):
        assert plus_rep(PeriodicMatrix.diagonal(lam)) == longest_in_parabolic(lam)


def test_plus_rep_has_full_descents():
    for lam in compositions(2, 2):
        for mu in compositions(2, 2):
            for u in (identity(2), generator(2, 0), rho(2)):
                p = plus_rep(matrix_of(lam, u, mu))
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
    bottom = min_double_rep(w, lam, mu)
    A = matrix_of(lam, bottom, mu)
    coset = double_coset(A)
    assert w in coset
    top = plus_rep(A)
    lengths = [x.length for x in coset]
    assert [x for x in coset if x.length == min(lengths)] == [bottom]
    assert [x for x in coset if x.length == max(lengths)] == [top]
    for x in coset:
        assert is_min_double_rep(x, lam, mu) == (x == bottom)
        assert is_max_double_rep(x, lam, mu) == (x == top)
    assert (A.ro, min_rep(A), A.co) == (lam, bottom, mu)
    assert d_A_combinatorial(A) == d_A_coxeter(A)
    # the matrix is a function of the coset, so any element may index it
    for x in coset:
        assert matrix_of(lam, x, mu) == A


def test_matrix_of_examples():
    lam = Composition(2, (2, 1))
    assert matrix_of(lam, identity(3), lam) == PeriodicMatrix(2, ((1, 1, 2), (2, 2, 1)))

    s0, s1 = generator(2, 0), generator(2, 1)
    m0 = matrix_of(OMEGA2, s0, OMEGA2)
    assert m0 == PeriodicMatrix(2, ((1, 0, 1), (2, 3, 1)))
    m1 = matrix_of(OMEGA2, s1, OMEGA2)
    assert m1 == PeriodicMatrix(2, ((1, 2, 1), (2, 1, 1)))


def test_matrix_row_column_sums():
    A = PeriodicMatrix(2, ((1, 0, 1), (2, 3, 1)))
    assert A.ro == OMEGA2
    assert A.co == OMEGA2
    assert A.r == 2
    assert A.entry(1, 0) == 1 and A.entry(3, 2) == 1 and A.entry(1, 1) == 0


def test_min_rep_examples():
    lam = Composition(2, (2, 1))
    diag = PeriodicMatrix.diagonal(lam)
    assert diag.ro == lam and diag.co == lam and min_rep(diag).is_identity()

    A = PeriodicMatrix(2, ((1, 0, 1), (2, 3, 1)))
    assert min_rep(A) == generator(2, 0)
    B = PeriodicMatrix(2, ((1, 2, 1), (2, 1, 1)))
    assert min_rep(B) == generator(2, 1)


@pytest.mark.parametrize("n,r", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_roundtrip_both_ways(n, r):
    mats = enumerate_theta(n, r, 3, (-2, 2))
    assert mats
    for A in mats:
        assert matrix_of(A.ro, min_rep(A), A.co) == A
    for lam in compositions(n, r):
        for mu in compositions(n, r):
            for u in (identity(r), rho(r), rho(r, -1)):
                w = min_double_rep(u, lam, mu)
                A = matrix_of(lam, w, mu)
                assert (A.ro, min_rep(A), A.co) == (lam, w, mu)


def test_transpose_is_inverse_triple():
    for A in enumerate_theta(2, 2, 3, (-2, 2)):
        At = A.transpose()
        assert At.ro == A.co and At.co == A.ro
        assert min_rep(At) == min_double_rep(min_rep(A).inverse, A.co, A.ro)
        assert plus_rep(At) == plus_rep(A).inverse
        assert At.transpose() == A


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from([(1, 2, 3), (2, 2, 3), (2, 3, 2), (3, 3, 2)]), st.data())
def test_transpose_cached_involution(window, data):
    n, r, bound = window
    A = data.draw(st.sampled_from(enumerate_theta(n, r, bound, (-1, 1))))
    fresh = PeriodicMatrix(A.n, A.entries)  # no transpose cached yet
    At = fresh.transpose()
    assert (At.ro, At.co) == (fresh.co, fresh.ro)
    assert PeriodicMatrix(At.n, At.entries).transpose() == fresh
    assert fresh.transpose() is At and At.transpose() is fresh


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
            A = matrix_of(lam, rho(3), mu)
            bound = len(young_elements(lam)) * len(young_elements(mu))
            assert len(double_coset(A)) <= bound


def test_matrix_json_roundtrip():
    A = PeriodicMatrix(2, ((1, 0, 1), (2, 3, 1)))
    assert A.to_json() == {"n": 2, "r": 2, "entries": [[1, 0, 1], [2, 3, 1]]}
    assert PeriodicMatrix.from_json(A.to_json()) == A
    with pytest.raises(InvalidMatrix):
        PeriodicMatrix.from_json({"n": 2, "r": 5, "entries": [[1, 0, 1]]})


@st.composite
def periodic_matrices(draw):
    """A valid n-periodic matrix, n in 1..3, and its entries in a drawn order."""
    n = draw(st.integers(1, 3))
    cells = st.tuples(st.integers(1, n), st.integers(-4, 4))
    strip = draw(st.dictionaries(cells, st.integers(1, 3), min_size=1, max_size=5))
    entries = draw(st.permutations([(i, j, a) for (i, j), a in strip.items()]))
    return n, entries


@settings(max_examples=150, deadline=None, database=None)
@given(periodic_matrices())
def test_equal_matrices_and_compositions_are_one_object(case):
    # every construction path returns the canonical object, whose hash is that
    # of the field tuple: the stored hash keeps set and dict iteration order
    n, entries = case
    A = PeriodicMatrix(n, entries)
    assert PeriodicMatrix(n, sorted(entries)) is A
    assert PeriodicMatrix(n, [list(e) for e in reversed(entries)]) is A
    assert hash(A) == hash((n, A.entries))
    At = A.transpose()
    assert PeriodicMatrix(n, At.entries) is At and At.transpose() is A
    assert PeriodicMatrix.from_json(A.to_json()) is A
    assert copy.deepcopy(A) is A and pickle.loads(pickle.dumps(A)) is A
    assert matrix_of(A.ro, min_rep(A), A.co) is A
    for lam in (A.ro, A.co):
        assert Composition(n, list(lam.parts)) is lam
        assert hash(lam) == hash((n, lam.parts))
        assert Composition.from_json(lam.to_json()) is lam
        assert copy.deepcopy(lam) is lam and pickle.loads(pickle.dumps(lam)) is lam
    assert At.ro is A.co and At.co is A.ro
