"""Tests for the affine q-Schur algebra layer.

theta_mul goes through exact division by the Poincare polynomial; the honest
endomorphism-composition route (phi_mul) is the independent oracle it is
checked against, windowed pair by windowed pair.
"""

import itertools
import random

import pytest

from affschur import parabolic, schur
from affschur.affperm import generator, identity, rho
from affschur.errors import BasisMismatch, NotInModule
from affschur.hecke import HeckeElt, c_elt, h_mul, t_elt, x_lambda
from affschur.laurent import ONE, Q, T, TINV, ZERO, LaurentPoly, t_pow
from affschur.parabolic import (
    Composition,
    PeriodicMatrix,
    compositions,
    enumerate_theta,
    matrix_of,
    min_rep,
    plus_rep,
)
from affschur.schur import (
    SchurElt,
    alpha_coeff,
    basis_convert,
    embed_hecke,
    g_expansion,
    g_struct,
    omega_comp,
    phi_apply,
    phi_elt,
    phi_mul,
    poincare_h,
    schur_bar,
    schur_identity,
    theta_apply,
    theta_elt,
    theta_in_phihat,
    theta_mul,
    theta_mul_lemma42,
    theta_mul_lemma61,
)

OMEGA = Composition(2, (1, 1))
TWO0 = Composition(2, (2, 0))
E2 = identity(2)
S0 = generator(2, 0)
S1 = generator(2, 1)

M_ID = PeriodicMatrix.diagonal(OMEGA)
M_S0 = PeriodicMatrix(2, ((1, 0, 1), (2, 3, 1)))
M_S1 = PeriodicMatrix(2, ((1, 2, 1), (2, 1, 1)))
M_RHO = PeriodicMatrix(2, ((1, 0, 1), (2, 1, 1)))


def window22(bound=3, omega=(-1, 1)):
    return enumerate_theta(2, 2, bound, omega)


def test_poincare_examples():
    assert poincare_h(OMEGA) == ONE
    assert poincare_h(TWO0) == T + TINV
    assert poincare_h(Composition(1, (3,))) == LaurentPoly(
        {-3: 1, -1: 2, 1: 2, 3: 1}
    )
    for mu in compositions(3, 3):
        h = poincare_h(mu)
        assert h.is_bar_symmetric() and h.is_nonnegative()


def test_phi_apply_examples():
    # phi_lambda is idempotent on x_lambda
    for lam in compositions(2, 2):
        diag = PeriodicMatrix.diagonal(lam)
        assert phi_apply(diag, x_lambda(lam)) == x_lambda(lam)
    assert phi_apply(M_S0, t_elt(E2)) == t_elt(S0)
    with pytest.raises(NotInModule):
        phi_apply(PeriodicMatrix.diagonal(TWO0), t_elt(S1))


@pytest.mark.parametrize("n, r", [(1, 2), (3, 2), (2, 3)])
def test_apply_when_n_differs_from_r(n, r):
    # phi_A and theta_B act on x_mu H, whose coset sums pair mu (n parts) with (1^r)
    for lam in compositions(n, r):
        diag = PeriodicMatrix.diagonal(lam)
        assert phi_apply(diag, x_lambda(lam)) == x_lambda(lam)
    for B in enumerate_theta(n, r, 2, (-1, 1)):
        w0mu = plus_rep(PeriodicMatrix.diagonal(B.co))
        assert theta_apply(B, c_elt(w0mu)) == c_elt(plus_rep(B)), B


def test_phi_mul_examples():
    for lam in compositions(2, 2):
        d = phi_elt(PeriodicMatrix.diagonal(lam))
        assert phi_mul(d, d) == d
    d1 = phi_elt(PeriodicMatrix.diagonal(TWO0))
    d2 = phi_elt(PeriodicMatrix.diagonal(OMEGA))
    assert phi_mul(d1, d2).is_zero()
    prod = phi_mul(phi_elt(M_S0), phi_elt(M_S0))
    assert prod == SchurElt(2, 2, "phi", {M_ID: Q, M_S0: Q - 1})


def test_hecke_embedding_multiplicative():
    rng = random.Random(9)
    from affschur.affperm import ball

    elems = [w.shift(a) for w in ball(2, 3) for a in (-1, 0, 1)]
    for _ in range(12):
        u, v = rng.choice(elems), rng.choice(elems)
        lhs = embed_hecke(h_mul(t_elt(u), t_elt(v)), 2)
        rhs = phi_mul(embed_hecke(t_elt(u), 2), embed_hecke(t_elt(v), 2))
        assert lhs == rhs
    with pytest.raises(NotInModule):
        omega_comp(1, 2)


def test_alpha_coeff_examples():
    A = matrix_of(OMEGA, S1, OMEGA)
    assert alpha_coeff(S1, A) == TINV  # t^{-l(w+)} P_{w+,w+}
    assert alpha_coeff(E2, A) == TINV  # P_{e,s1} = 1
    A0 = matrix_of(TWO0, S0, TWO0)
    assert alpha_coeff(S0, A0) == t_pow(-3)
    assert alpha_coeff(rho(2), matrix_of(OMEGA, rho(2), OMEGA)) == ONE


def test_theta_in_phihat_examples():
    for lam in compositions(2, 2):
        diag = PeriodicMatrix.diagonal(lam)
        assert theta_in_phihat(diag) == SchurElt(2, 2, "phihat", {diag: ONE})
    th = theta_in_phihat(M_S1)
    assert th == SchurElt(2, 2, "phihat", {M_S1: ONE, M_ID: TINV})
    assert theta_in_phihat(M_RHO) == SchurElt(2, 2, "phihat", {M_RHO: ONE})


def test_theta_unitriangular_with_negative_tail():
    for B in window22():
        th = theta_in_phihat(B)
        assert th.coeff(B) == ONE
        for A, c in th.terms.items():
            if A != B:
                assert c.degree() <= -1


def test_basis_convert_roundtrips():
    rng = random.Random(21)
    win = window22()
    for _ in range(10):
        terms = {rng.choice(win): t_pow(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3)}
        a = SchurElt(2, 2, "theta", terms)
        for target in ("phi", "phihat", "e", "bracket"):
            b = basis_convert(a, target)
            assert basis_convert(b, "theta") == a
    # e is phi relabeled; bracket is phihat relabeled
    one = theta_elt(M_S1)
    assert basis_convert(basis_convert(one, "e"), "phi").terms == basis_convert(
        one, "phi"
    ).terms
    assert basis_convert(basis_convert(one, "bracket"), "phihat").terms == basis_convert(
        one, "phihat"
    ).terms


def test_g_struct_examples():
    D = matrix_of(TWO0, E2, TWO0)
    assert g_struct(D, D, D) == ONE
    # color mismatch
    assert g_struct(D, M_S0, D) == ZERO
    assert g_struct(M_S1, M_S1, M_S1) == T + TINV


def test_g_expansion_positive():
    win = window22()
    for A in win:
        for B in win:
            for C, g in g_expansion(A, B):
                assert g.is_nonnegative(), (A, B, C, g)


def test_theta_mul_examples():
    for lam in compositions(2, 2):
        d = theta_elt(PeriodicMatrix.diagonal(lam))
        assert theta_mul(d, d) == d
    D = matrix_of(TWO0, E2, TWO0)
    td = theta_elt(D)
    assert theta_mul(td, td) == td  # the idempotent of the lowest cell


def test_two_route_multiplication_agrees():
    win = window22()
    for A in win:
        for B in win:
            direct = theta_mul(theta_elt(A), theta_elt(B))
            via_phi = basis_convert(
                phi_mul(
                    basis_convert(theta_elt(A), "phi"),
                    basis_convert(theta_elt(B), "phi"),
                ),
                "theta",
            )
            assert direct == via_phi, (A, B)


def test_theta_mul_reads_no_memo_of_the_phi_route():
    # the two routes are independent only if theta_mul never reaches these
    memos = (parabolic.d_A_coxeter, schur._phi_pair, schur._theta_phihat)
    before = [m.cache_info() for m in memos]
    win = window22(4, (-2, 2))
    for A in win:
        for B in win:
            theta_mul(theta_elt(A), theta_elt(B))
    assert [m.cache_info() for m in memos] == before


def test_fast_paths_match_general_product():
    win = window22()
    pairs42 = pairs61 = 0
    for A in win:
        for B in win:
            if A.co != B.ro:
                continue
            if min_rep(A).is_identity() and A.ro.gens <= A.co.gens:
                assert theta_mul_lemma42(A, B) == theta_mul(theta_elt(A), theta_elt(B))
                pairs42 += 1
            if min_rep(B).is_identity() and B.co.gens <= B.ro.gens:
                assert theta_mul_lemma61(A, B) == theta_mul(theta_elt(A), theta_elt(B))
                pairs61 += 1
    assert pairs42 > 10 and pairs61 > 10


def test_identity_element():
    one = schur_identity(2, 2)
    rng = random.Random(31)
    win = window22()
    for _ in range(8):
        a = SchurElt(
            2, 2, "theta", {rng.choice(win): t_pow(rng.randint(-1, 1)) for _ in range(2)}
        )
        assert theta_mul(one, a) == a
        assert theta_mul(a, one) == a


def test_theta_sends_cw0_to_cwplus():
    for B in window22():
        w0mu = plus_rep(matrix_of(B.co, identity(2), B.co))
        out = theta_apply(B, c_elt(w0mu))
        assert out == c_elt(plus_rep(B)), B


def test_schur_bar_fixes_theta():
    for B in window22():
        tb = theta_elt(B)
        assert schur_bar(tb) == tb, B


def test_schur_bar_semilinear_involution():
    rng = random.Random(41)
    win = window22()
    for _ in range(8):
        a = SchurElt(
            2, 2, "theta", {rng.choice(win): t_pow(rng.randint(-2, 2)) for _ in range(2)}
        )
        assert schur_bar(schur_bar(a)) == a
        assert schur_bar(a.scale(T)) == schur_bar(a).scale(TINV)


def test_schur_bar_restricts_to_hecke_bar():
    # for n >= r the involution restricted to the embedded Hecke algebra agrees
    from affschur.hecke import h_bar

    for w in (E2, S0, S1, S0 * S1, rho(2)):
        lhs = schur_bar(embed_hecke(t_elt(w), 2))
        rhs = embed_hecke(h_bar(t_elt(w)), 2)
        assert lhs == rhs, w


def test_g_nonzero_needs_matching_colors():
    win = window22()
    for A in win:
        for B in win:
            for C, g in g_expansion(A, B):
                assert not g.is_zero()
                assert A.co == B.ro
                assert (A.ro, B.co) == (C.ro, C.co)


def test_basis_errors():
    a = theta_elt(M_S1)
    b = basis_convert(a, "phihat")
    with pytest.raises(BasisMismatch):
        theta_mul(a, basis_convert(a, "phi"))
    with pytest.raises(BasisMismatch):
        b * b
    with pytest.raises(BasisMismatch):
        basis_convert(a, "weird")


def test_schur_json_roundtrip():
    a = SchurElt(2, 2, "theta", {M_S1: ONE, M_ID: T + TINV})
    assert SchurElt.from_json(a.to_json()) == a
    assert a.to_json()["basis"] == "theta"


def test_alpha_vanishes_outside_bruhat_cone():
    A1 = matrix_of(OMEGA, S1, OMEGA)
    assert alpha_coeff(S0, A1) == ZERO  # s0+ not below s1+
    assert alpha_coeff(rho(2), A1) == ZERO  # omega-degrees differ


def test_rank_one_hecke_path():
    # r = 1: no generators, W = <rho>, C_w = T_w, bar permutes rho-powers
    from affschur.affperm import AffPerm
    from affschur.hecke import c_elt, h_bar, h_mul, t_elt

    w = AffPerm(1, (4,))  # rho^3
    assert w.length == 0 and w.omega_degree == 3
    assert c_elt(w) == t_elt(w)
    assert h_bar(t_elt(w)) == t_elt(w.inverse.inverse)  # = T_w itself
    v = AffPerm(1, (-1,))
    assert h_mul(t_elt(w), t_elt(v)) == t_elt(w * v)
