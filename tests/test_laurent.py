"""Unit and property tests for the Laurent polynomial ring."""

import doctest
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affschur import laurent
from affschur.errors import DivisionByZero, InexactDivision, ZeroBase
from affschur.laurent import (
    NEG_INF, ONE, Q, T, TINV, ZERO, LaurentPoly, bilinear, linear, peel, t_pow,
)


def rand_poly(rng, span=4, size=4, bound=9):
    return LaurentPoly(
        {rng.randint(-span, span): rng.randint(-bound, bound) for _ in range(size)}
    )


def test_add_examples():
    assert T + (-1 * T) == ZERO
    assert (T + 1) + TINV == T + 1 + TINV
    assert ZERO + (T + 3) == T + 3


def test_mul_examples():
    assert (1 + T) * (1 - T) == 1 - T**2
    assert (T + TINV) ** 2 == T**2 + 2 + TINV**2
    assert (T + 5) * ZERO == ZERO


def test_bar_examples():
    assert (T**2 + 3).bar() == TINV**2 + 3
    p = LaurentPoly({3: 2, -1: 5, 0: -7})
    assert p.bar().bar() == p
    assert (T + TINV).bar() == T + TINV


def test_degree_examples():
    assert (T + TINV).degree() == 1
    assert LaurentPoly(7).degree() == 0
    assert ZERO.degree() == NEG_INF


def test_coeff_examples():
    assert (T + TINV).coeff(1) == 1
    assert (T + TINV).coeff(0) == 0
    assert t_pow(2, 3).coeff(2) == 3


def test_exact_div_examples():
    assert (T**2 + 2 + TINV**2).exact_div(T + TINV) == T + TINV
    p = LaurentPoly({5: 3, -2: 1})
    assert p.exact_div(ONE) == p
    with pytest.raises(InexactDivision):
        (T + 1).exact_div(T - 1)
    with pytest.raises(DivisionByZero):
        ONE.exact_div(ZERO)


def test_eval_examples():
    assert (T + TINV).evaluate(2) == Fraction(5, 2)
    p = LaurentPoly({2: 3, 0: -1, -3: 4})
    assert p.evaluate(1) == 3 - 1 + 4
    assert ZERO.evaluate(Fraction(7, 2)) == 0
    with pytest.raises(ZeroBase):
        (T + 1).evaluate(0)


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_bar_is_ring_automorphism():
    rng = random.Random(7)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_exact_div_roundtrip_randomized():
    rng = random.Random(99)
    for _ in range(200):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


_polys = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=4).map(LaurentPoly)


@settings(max_examples=200, deadline=None, database=None)
@given(_polys, _polys.filter(lambda b: len(list(b.items())) >= 2), st.integers(-6, 6))
def test_exact_div_rejects_remainder(a, b, k):
    # t^k is a unit and b is not, so b never divides a*b + t^k
    with pytest.raises(InexactDivision):
        (a * b + t_pow(k)).exact_div(b)


@settings(max_examples=200, deadline=None, database=None)
@given(_polys, _polys, _polys)
def test_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=200, deadline=None, database=None)
@given(_polys, _polys)
def test_bar_is_ring_automorphism_property(a, b):
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()
    assert a.bar().bar() == a


# linear / bilinear against the naive term-by-term sum.  Keys and exponents
# are drawn from small ranges so that coefficients often cancel to zero, and
# image coefficients may be plain ints (as the gamma expansions yield them).
_keys = st.integers(0, 3)
_image_coeffs = st.one_of(_polys, st.integers(-3, 3))
_images = st.lists(st.tuples(_keys, _image_coeffs), max_size=4)


def _naive_sum(products) -> dict:
    acc = {}
    for k, c, d in products:
        acc[k] = acc.get(k, ZERO) + c * d
    return {k: c for k, c in acc.items() if not c.is_zero()}


@settings(max_examples=300, deadline=None, database=None)
@given(st.dictionaries(_keys, _polys, max_size=4), st.dictionaries(_keys, _images))
def test_linear_matches_naive_sum(terms, table):
    image = lambda k: table.get(k, [])  # noqa: E731
    naive = _naive_sum((k2, c, d) for k, c in terms.items() for k2, d in image(k))
    assert linear(terms, image) == naive


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.dictionaries(_keys, _polys, max_size=3),
    st.dictionaries(_keys, _polys, max_size=3),
    st.dictionaries(st.tuples(_keys, _keys), _images),
)
def test_bilinear_matches_naive_sum(a, b, table):
    image = lambda x, y: table.get((x, y), [])  # noqa: E731
    naive = _naive_sum(
        (z, cx * cy, d) for x, cx in a.items() for y, cy in b.items() for z, d in image(x, y)
    )
    assert bilinear(a, b, image) == naive


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.dictionaries(_keys, _polys, max_size=4),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.dictionaries(_keys, _images),
)
def test_peel_inverts_a_triangular_change_of_basis(x, leads, tails):
    # column k is t^{-m_k} at k itself plus a tail of keys below k; lead t^{m_k}
    def column(k):
        tail = [(j, d) for j, d in tails.get(k, []) if j < k]
        return t_pow(leads[k]), [(k, t_pow(-leads[k]))] + tail

    x = {k: c for k, c in x.items() if c}
    assert peel(linear(x, lambda k: column(k)[1]), lambda k: k, column) == x


def test_linear_edge_cases():
    image = lambda k: [("z", T), (k, 2)]  # noqa: E731
    assert linear({}, image) == {}
    assert linear({0: ONE}, lambda k: []) == {}
    assert bilinear({}, {0: ONE}, lambda x, y: [("z", ONE)]) == {}
    # the "z" terms cancel; int image coefficients act as constants
    assert linear({0: ONE, 1: -ONE}, image) == {0: LaurentPoly(2), 1: LaurentPoly(-2)}
    assert linear({0: T, 1: -T}, lambda k: [("z", 3)]) == {}
    assert bilinear({0: T}, {1: TINV}, lambda x, y: [((x, y), -1)]) == {(0, 1): -ONE}


def test_in_q_closed_under_product():
    rng = random.Random(3)
    for _ in range(100):
        a = LaurentPoly({2 * rng.randint(-3, 3): rng.randint(-5, 5) for _ in range(3)})
        b = LaurentPoly({2 * rng.randint(-3, 3): rng.randint(-5, 5) for _ in range(3)})
        assert a.in_q() and b.in_q()
        assert (a * b).in_q()
    assert Q.in_q() and not T.in_q()


def test_neg_t_substitution():
    p = T**3 - 2 * T**2 + 5 * T + 7 + TINV
    assert p.neg_t() == -(T**3) - 2 * T**2 - 5 * T + 7 - TINV
    assert p.neg_t().neg_t() == p


@settings(max_examples=100, deadline=None, database=None)
@given(_polys, _polys)
def test_hash_is_the_hash_of_the_coefficient_items(a, b):
    # the stored hash is the value it always was, so dict and set order stay the same
    for p in (a, b, a * b, a + b, a.bar()):
        assert hash(p) == hash(frozenset(dict(p.items()).items())) == hash(p)
    assert hash(a) == hash(LaurentPoly(dict(a.items())))


def test_json_roundtrip():
    p = LaurentPoly({-1: 1, 1: 1})
    assert p.to_json() == {"-1": "1", "1": "1"}
    assert LaurentPoly.from_json(p.to_json()) == p
    assert LaurentPoly.from_json({}) == ZERO


@settings(max_examples=100, deadline=None, database=None)
@given(_polys)
def test_to_json_returns_a_fresh_dict(p):
    # the JSON dict behind to_json is kept on the value; a caller's dict is its own
    expected = {str(e): str(c) for e, c in p.items()}
    first = p.to_json()
    assert first == expected
    first.clear()
    first["99"] = "1"
    assert p.to_json() == expected


@pytest.mark.parametrize("obj", [
    {"0": " 1"}, {"0": "1 "}, {"0": "1_0"}, {"0": "+1"}, {"0": "\u0661"}, {"0": ""}, {"0": "--1"},
    {" 2": "1"}, {"2_0": "1"}, {"+2": "1"}, {"\u0662": "1"}, {"": "1"},
])
def test_from_json_reads_only_the_decimal_form(obj):
    # int() would accept every one of these but the empty and doubled-sign strings
    with pytest.raises(TypeError):
        LaurentPoly.from_json(obj)
    assert LaurentPoly.from_json({"-2": "-007", "0": 3}) == -7 * T**-2 + 3


def test_module_doctests():
    result = doctest.testmod(laurent)
    assert result.attempted > 0 and result.failed == 0
