"""Tests for the extended affine symmetric group.

The length formula is validated against a BFS word-length oracle and the
Bruhat lifting recursion against a reduced-subword oracle, as independent
routes to the same data.
"""

import copy
import doctest
import itertools
import pickle
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affschur import affperm
from affschur.affperm import (
    AffPerm,
    ball,
    bruhat_leq,
    bruhat_lower,
    from_word,
    generator,
    identity,
    rho,
    rho_conjugate,
)
from affschur.errors import IndexOutOfRange, InvalidWindow, PeriodMismatch
from affschur.parabolic import Composition, matrix_of, min_rep, young_elements


def bfs_lengths(r, bound):
    """Word-length oracle: distance from the identity in the Cayley graph."""
    dist = {identity(r): 0}
    frontier = [identity(r)]
    while frontier:
        nxt = []
        for w in frontier:
            if dist[w] == bound:
                continue
            for i in range(r):
                ws = w * generator(r, i)
                if ws not in dist:
                    dist[ws] = dist[w] + 1
                    nxt.append(ws)
        frontier = nxt
    return dist


def subword_lower_set(w):
    """Reduced-subword oracle for {y : y <= w}."""
    a, word = w.reduced_word()
    out = set()
    for mask in itertools.product((0, 1), repeat=len(word)):
        sub = [s for keep, s in zip(mask, word) if keep]
        out.add(from_word(w.r, a, sub))
    return out


def test_window_validation():
    with pytest.raises(InvalidWindow):
        AffPerm(2, (1, 3))  # 1 = 3 mod 2
    with pytest.raises(InvalidWindow):
        AffPerm(3, (1, 2))
    AffPerm(1, (5,))  # rho^4 at r = 1 is fine
    for r, window in ((2, (1, "2")), (2, (1, True)), ("2", (1, 2)), (2, (1.0, 2))):
        with pytest.raises(TypeError):
            AffPerm(r, window)


def test_rho_is_shared_and_still_validated():
    assert rho(3, -2) is rho(3, -2)
    for r in (0, -1):
        with pytest.raises(InvalidWindow):
            rho(r)


def test_apply_periodicity():
    s0 = generator(2, 0)
    assert s0.window == (0, 3)
    assert s0.apply(2) == 3
    assert s0.apply(0) == 1
    e = identity(5)
    for i in (-7, 0, 3, 12):
        assert e.apply(i) == i


def test_generator_windows():
    assert generator(2, 0).window == (0, 3)
    assert generator(2, 1).window == (2, 1)
    assert rho(2).window == (2, 3)
    assert generator(3, 2).window == (1, 3, 2)
    with pytest.raises(IndexOutOfRange):
        generator(2, 2)
    with pytest.raises(IndexOutOfRange):
        generator(1, 0)


def test_compose_and_inverse():
    s0, s1 = generator(2, 0), generator(2, 1)
    assert (s0 * s1).window == (3, 0)
    assert (rho(2) * s1) == (s0 * rho(2))
    assert (rho(2) * s1).window == (3, 2)
    rng = random.Random(5)
    for w in rng.sample(ball(3, 5), 10):
        assert (w * w.inverse).is_identity()
        assert (w.inverse * w).is_identity()
    with pytest.raises(PeriodMismatch):
        generator(2, 0) * generator(3, 0)


def test_omega_degree_additive():
    w1 = rho(2, 3) * generator(2, 0)
    w2 = rho(2, -1) * generator(2, 1)
    assert w1.omega_degree == 3
    assert (w1 * w2).omega_degree == 2
    assert w1.inverse.omega_degree == -3


def test_length_examples():
    assert generator(2, 1).length == 1
    assert rho(2).length == 0
    assert (generator(2, 0) * generator(2, 1)).length == 2


@pytest.mark.parametrize("r", [2, 3])
def test_length_matches_bfs_oracle(r):
    dist = bfs_lengths(r, 6)
    for w, d in dist.items():
        assert w.length == d


def test_length_subadditive():
    rng = random.Random(11)
    elems = ball(2, 6) + ball(2, 4)
    for _ in range(80):
        u, v = rng.choice(elems), rng.choice(elems)
        assert (u * v).length <= u.length + v.length


def test_descents():
    for r in (2, 3):
        for i in range(r):
            s = generator(r, i)
            assert s.right_descents == {i}
            assert s.left_descents == {i}
    assert rho(2).right_descents == frozenset()
    w = generator(2, 0) * generator(2, 1)
    assert w.right_descents == {1}
    assert w.left_descents == {0}


def test_descents_match_length_drop():
    # the KL recursion reads descents from these sets instead of multiplying
    for r, bound in ((2, 8), (3, 6), (4, 4)):
        for w in ball(r, bound):
            for i in range(r):
                s = generator(r, i)
                assert (i in w.right_descents) == ((w * s).length < w.length)
                assert (i in w.left_descents) == ((s * w).length < w.length)


def test_reduced_word_examples():
    assert identity(2).reduced_word() == (0, ())
    w = rho(2, 2) * generator(2, 1)
    assert w.reduced_word() == (2, (1,))
    w = from_word(2, 0, [0, 1, 0])
    assert w.reduced_word() == (0, (0, 1, 0))
    assert w.length == 3


def test_reduced_word_roundtrip():
    for w in ball(3, 5):
        a, word = w.reduced_word()
        assert len(word) == w.length
        assert from_word(3, a, word) == w


def test_from_word_examples():
    assert from_word(2, 0, [0, 0]).is_identity()
    assert from_word(2, 1, []) == rho(2)
    assert from_word(2, 0, [1, 0]).window == (-1, 4)


def test_ball_sizes():
    assert ball(2, 0) == (identity(2),)
    assert len(ball(2, 2)) == 5
    assert len(ball(3, 1)) == 4
    assert len(ball(1, 3)) == 1
    # infinite dihedral growth: 1 + 2L elements
    assert len(ball(2, 8)) == 17


def test_bruhat_examples():
    s0, s1 = generator(2, 0), generator(2, 1)
    for w in ball(2, 4):
        assert bruhat_leq(identity(2), w)
    assert bruhat_leq(s0, s0 * s1)
    assert not bruhat_leq(rho(2), s0)


@pytest.mark.parametrize("r,bound", [(2, 6), (3, 4)])
def test_bruhat_matches_subword_oracle(r, bound):
    elems = ball(r, bound)
    lowers = {w: subword_lower_set(w) for w in elems}
    for y in elems:
        for w in elems:
            assert bruhat_leq(y, w) == (y in lowers[w])


# A fresh process, so no pair is memoized: y <= w by the lifting property takes
# l(w) steps, which a recursion per letter walks as l(w) nested calls.
_LEQ_CHAIN = """
import inspect, sys
from affschur.affperm import bruhat_leq, from_word
y, w = from_word(2, 0, [0, 1] * 599), from_word(2, 0, [0, 1] * 600)
limit = sys.getrecursionlimit()
sys.setrecursionlimit(len(inspect.stack()) + 40)
try:
    print(bruhat_leq(y, w), bruhat_leq(w, y))
finally:
    sys.setrecursionlimit(limit)
"""


def test_bruhat_leq_walks_long_chains_without_recursion():
    proc = subprocess.run([sys.executable, "-c", _LEQ_CHAIN], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_bruhat_lower_examples():
    e = identity(2)
    s0, s1 = generator(2, 0), generator(2, 1)
    assert bruhat_lower(e) == {e}
    assert bruhat_lower(s0 * s1) == {e, s0, s1, s0 * s1}
    assert bruhat_lower(rho(2) * s1) == {rho(2), rho(2) * s1}


def test_bruhat_lower_matches_subword_oracle():
    for w in ball(3, 4):
        assert bruhat_lower(w) == subword_lower_set(w)


def test_rho_twist_invariance():
    rng = random.Random(17)
    for _ in range(40):
        w = rng.choice(ball(2, 5))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        assert (rho(2, a) * w * rho(2, b)).length == w.length
    # conjugation by rho permutes the generators cyclically
    for r in (2, 3):
        for i in range(r):
            assert rho_conjugate(generator(r, i), 1) == generator(r, (i + 1) % r)


def test_windows_stay_valid_under_ops():
    rng = random.Random(23)
    elems = ball(3, 4)
    for _ in range(50):
        u, v = rng.choice(elems), rng.choice(elems)
        w = (u * v).inverse * rho(3, rng.randint(-2, 2))
        AffPerm(w.r, w.window)  # revalidates invariants


@st.composite
def perm_pairs(draw):
    """Two elements of one W with r in 1..4, each a random word times a rho-power."""
    r = draw(st.integers(1, 4))
    words = st.lists(st.integers(0, r - 1), max_size=8) if r >= 2 else st.just([])
    x, y = (from_word(r, draw(st.integers(-3, 3)), draw(words)) for _ in range(2))
    return x, y, draw(st.integers(-3, 3))


@settings(max_examples=150, deadline=None, database=None)
@given(perm_pairs())
def test_unchecked_results_pass_validation(case):
    # products, inverses, splits, shifts and conjugates skip validation;
    # rebuilding each through the public constructor must give an equal element
    x, y, k = case
    a, u = x.omega_split()
    results = [x * y, x.inverse, u, x.shift(k), rho_conjugate(x, k)]
    for res in results:
        assert type(res.window) is tuple
        assert AffPerm(res.r, res.window) == res
    assert rho(x.r, a) * u == x and u.omega_degree == 0


@settings(max_examples=150, deadline=None, database=None)
@given(perm_pairs())
def test_equal_elements_are_one_object(case):
    # every construction path returns the canonical object, whose hash is that
    # of (r, window): the stored hash keeps set and dict iteration order
    x, y, k = case
    results = [x * y, x.inverse, x.omega_split()[1], x.shift(k, k), rho_conjugate(x, k)]
    for res in results:
        assert AffPerm(res.r, list(res.window)) is res
        assert hash(res) == hash((res.r, res.window))
    assert x * y is x * y and x.inverse.inverse is x


def test_construction_paths_share_one_object():
    s1, e = generator(3, 1), identity(3)
    w = from_word(3, 0, [0, 1, 2, 1])
    trivial = Composition(3, (1, 1, 1))
    young = young_elements(Composition(2, (2, 1)))
    cases = [
        (AffPerm(3, (2, 1, 3)), s1),
        (AffPerm(3, [2, 1, 3]), s1),
        (from_word(3, 0, [1]), s1),
        (s1 * s1, e),
        (s1.inverse, s1),
        (rho(3, 1).shift(-1), e),
        (rho(3, 2).omega_split()[1], e),
        (rho_conjugate(generator(3, 0), 1), s1),
        (rho(3, 1), e.shift(1)),
        (next(y for y in ball(3, 1) if y.window == (2, 1, 3)), s1),
        (next(y for y in young if y.window == (2, 1, 3)), s1),
        (min_rep(matrix_of(trivial, w, trivial)), AffPerm(3, w.window)),
    ]
    for built, canonical in cases:
        assert built is canonical, built
    fresh = AffPerm(4, [101, -98, 3, 4])  # a list window, not built before
    assert type(fresh.window) is tuple and AffPerm(4, (101, -98, 3, 4)) is fresh


@pytest.mark.parametrize(
    "r, window, error",
    [
        (2, (1.0, 2), TypeError),
        (2, (1, True), TypeError),
        ("2", (1, 2), TypeError),
        (3, (1, 2), InvalidWindow),
        (2, (1, 3), InvalidWindow),
    ],
)
def test_failed_construction_leaves_the_table_unchanged(r, window, error):
    # validation runs before the lookup: (1.0, 2) and (1, True) hash and
    # compare equal to the window (1, 2), which must not be returned for them
    e = identity(2)
    before = affperm.shared_elements()
    with pytest.raises(error):
        AffPerm(r, window)
    assert affperm.shared_elements() == before
    assert identity(2) is e and all(type(v) is int for v in e.window)


def test_copies_are_the_canonical_object():
    w = from_word(3, 1, [0, 2, 1])
    assert copy.copy(w) is w and copy.deepcopy(w) is w
    assert pickle.loads(pickle.dumps(w)) is w


def test_threads_building_one_new_element_get_one_object():
    # 4 threads build the same 20,000 new windows at once under a short switch
    # interval; a lost race in the intern table would hand two threads
    # different objects for one element
    windows = [(1 + 2 * k, 2 - 2 * k) for k in range(10**6, 10**6 + 20_000)]
    results = [[] for _ in range(4)]
    start = threading.Barrier(len(results))

    def build(out):
        start.wait()
        out.extend(AffPerm(2, w) for w in windows)

    threads = [threading.Thread(target=build, args=(out,)) for out in results]
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
    assert all(len(out) == len(windows) for out in results)
    for built in zip(*results):
        assert all(x is built[0] for x in built)


@st.composite
def perm_triples(draw):
    """Three elements of one W with r in 1..4, each a random word times a rho-power."""
    r = draw(st.integers(1, 4))
    words = st.lists(st.integers(0, r - 1), max_size=8) if r >= 2 else st.just([])
    return tuple(from_word(r, draw(st.integers(-3, 3)), draw(words)) for _ in range(3))


@st.composite
def short_elements(draw):
    """An element of W with r in 2..5 and length <= 10: a word of at most 10
    letters times a rho-power."""
    r = draw(st.integers(2, 5))
    return from_word(r, draw(st.integers(-2, 2)), draw(st.lists(st.integers(0, r - 1), max_size=10)))


@settings(max_examples=150, deadline=None, database=None)
@given(short_elements())
def test_left_products_are_read_from_the_generator_table(y):
    # the table's entry i is the interned s_i * y, and every read returns it
    for i in range(y.r):
        first = y.left(i)
        assert first is generator(y.r, i) * y
        assert y.left(i) is first


@settings(max_examples=150, deadline=None, database=None)
@given(perm_triples())
def test_group_laws(case):
    x, y, z = case
    assert (x * y) * z == x * (y * z)
    assert (x * y).inverse == y.inverse * x.inverse
    assert x * x.inverse == identity(x.r) == x.inverse * x
    assert x.inverse.length == x.length
    assert (x * y).omega_degree == x.omega_degree + y.omega_degree


def test_module_doctests():
    result = doctest.testmod(affperm)
    assert result.attempted > 0 and result.failed == 0
