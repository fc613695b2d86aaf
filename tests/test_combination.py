"""Property tests for the shared element arithmetic of the three algebras.

HeckeElt, SchurElt and JElt are all Combination subclasses; the module laws
and the JSON round trip are checked on each kind with the same strategies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affschur.affperm import ball, generator, identity, rho
from affschur.asymptotic import JElt
from affschur.errors import BasisMismatch, PeriodMismatch
from affschur.hecke import HeckeElt
from affschur.laurent import ONE, LaurentPoly
from affschur.parabolic import enumerate_theta
from affschur.schur import SchurElt

PERMS = sorted(ball(2, 3), key=lambda w: w.sort_key) + [rho(2)]
MATS = list(enumerate_theta(2, 2, 2, (0, 0)))

KINDS = [
    (lambda terms: HeckeElt(2, "T", terms), PERMS),
    (lambda terms: SchurElt(2, 2, "theta", terms), MATS),
    (lambda terms: JElt("J_W", 2, 0, terms), PERMS),
    (lambda terms: JElt("J_Schur", 2, 2, terms), MATS),
]

POLYS = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=3).map(LaurentPoly)
SCALARS = st.one_of(POLYS, st.integers(-5, 5))


def same_kind(count):
    """count elements of one randomly chosen kind."""

    def elements(kind):
        make, keys = kind
        elt = st.dictionaries(st.sampled_from(keys), POLYS, max_size=4).map(make)
        return st.tuples(*[elt] * count)

    return st.sampled_from(KINDS).flatmap(elements)


LAWS = settings(max_examples=60, deadline=None, database=None)


@LAWS
@given(same_kind(3))
def test_add_commutative_and_associative(elts):
    a, b, c = elts
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@LAWS
@given(same_kind(1))
def test_sub_self_is_zero(elts):
    (a,) = elts
    diff = a - a
    assert diff.is_zero() and diff.support() == []
    assert type(diff) is type(a) and diff == a.scale(0)


@LAWS
@given(same_kind(2), SCALARS, SCALARS)
def test_scale_distributes(elts, c, d):
    a, b = elts
    assert (a + b).scale(c) == a.scale(c) + b.scale(c)
    assert a.scale(c + d) == a.scale(c) + a.scale(d)


@LAWS
@given(same_kind(1))
def test_json_roundtrip(elts):
    (a,) = elts
    assert type(a).from_json(a.to_json()) == a


def test_jelt_from_json_integer_and_missing_coefficients():
    s0 = generator(2, 0)
    obj = {"ring": "J_W", "r": 2, "terms": [{"window": [0, 3], "coeff": "-2"}, {"window": [1, 2]}]}
    assert JElt.from_json(obj) == JElt("J_W", 2, 0, {s0: LaurentPoly(-2), identity(2): ONE})


KIND_PARAMS = pytest.mark.parametrize("make, keys", KINDS, ids=["hecke", "schur", "j_w", "j_schur"])


@KIND_PARAMS
def test_int_coefficients_are_constant_polynomials(make, keys):
    a = make({keys[0]: 3, keys[1]: 0, keys[2]: LaurentPoly(0)})
    assert a.terms == {keys[0]: LaurentPoly(3)} and a == make({keys[0]: LaurentPoly(3)})
    assert make({keys[1]: 0}).is_zero()


@KIND_PARAMS
def test_a_key_of_the_wrong_class_is_a_basis_mismatch(make, keys):
    wrong = MATS[0] if keys is PERMS else PERMS[0]
    with pytest.raises(BasisMismatch):
        make({keys[0]: ONE, wrong: ONE})


@KIND_PARAMS
def test_from_json_refuses_an_unknown_tag(make, keys):
    cls = type(make({}))
    obj = make({keys[0]: ONE}).to_json()
    obj[cls.TAG] = "X"
    with pytest.raises(BasisMismatch):
        cls.from_json(obj)


@KIND_PARAMS
def test_from_json_coefficient_forms(make, keys):
    cls = type(make({}))
    obj = make({keys[0]: ONE, keys[1]: ONE}).to_json()
    del obj["terms"][0]["coeff"]
    obj["terms"][1]["coeff"] = "-2"
    a = cls.from_json(obj)
    assert a.coeff(a.support()[0]) == ONE and a.coeff(a.support()[1]) == LaurentPoly(-2)


@pytest.mark.parametrize("left, right", [(a, b) for a in range(4) for b in range(4) if a != b])
def test_elements_of_different_kinds_do_not_add(left, right):
    (make_a, keys_a), (make_b, keys_b) = KINDS[left], KINDS[right]
    a, b = make_a({keys_a[0]: ONE}), make_b({keys_b[0]: ONE})
    # the two JElt kinds share a class and differ in size; other pairs differ in class
    error = PeriodMismatch if type(a) is type(b) else BasisMismatch
    with pytest.raises(error):
        a + b
    with pytest.raises(error):
        a - b
    with pytest.raises(BasisMismatch):
        a - 1


def test_header_mismatches_and_hashing():
    s0 = generator(2, 0)
    with pytest.raises(BasisMismatch):
        HeckeElt(2, "T", {s0: ONE}) + HeckeElt(2, "C", {s0: ONE})
    with pytest.raises(PeriodMismatch):
        JElt("J_W", 2, 0, {s0: ONE}) + JElt("J_Schur", 2, 2, {})
    assert HeckeElt(2, "T", {s0: ONE}) != JElt("J_W", 2, 0, {s0: ONE})
    with pytest.raises(TypeError):
        hash(HeckeElt(2, "T", {}))
    # a J_W element has no size n, with or without terms
    for terms in ({}, {s0: ONE}):
        with pytest.raises(PeriodMismatch):
            JElt("J_W", 2, 2, terms)
