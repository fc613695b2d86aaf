"""The affine q-Schur algebra over Z[t, 1/t].

Basis bookkeeping.  The standard basis phi_A is indexed by periodic matrices
A, one for each double coset W_lam w W_mu with lam = ro(A) and mu = co(A);
phi-hat is its length-normalized rescaling, theta the canonical (IC) basis,
and e / bracket the convolution algebra's names for the same two objects
(e_A = phi_A, [A] = phihat_A via the dimension statistic d_A).  Structure
constants in the theta basis divide the corresponding Hecke constants exactly
by the Poincare polynomial h_mu; that division is the primary multiplication
route, with honest endomorphism composition kept alive as an independent
cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

from . import hecke
from .affperm import AffPerm, bruhat_lower
from .errors import BasisMismatch, NotInModule
from .hecke import HeckeElt, coset_sum_TD, h_bar, h_expansion, h_mul
from .interned import Memo
from .laurent import ONE, ZERO, Combination, LaurentPoly, bilinear, linear, peel, t_pow
from .parabolic import (
    Composition,
    PeriodicMatrix,
    compositions,
    coset_of,
    d_A_coxeter,
    double_coset,
    is_max_double_rep,
    longest_in_parabolic,
    matrix_of,
    min_double_rep,
    min_rep,
    plus_rep,
    young_elements,
)

__all__ = [
    "SchurElt",
    "BASES",
    "poincare_h",
    "phi_elt",
    "theta_elt",
    "phi_apply",
    "phi_mul",
    "alpha_coeff",
    "theta_in_phihat",
    "basis_convert",
    "g_struct",
    "g_expansion",
    "max_rep_terms",
    "theta_mul",
    "theta_mul_lemma42",
    "theta_mul_lemma61",
    "schur_bar",
    "theta_apply",
    "schur_identity",
    "omega_comp",
    "embed_hecke",
]

BASES = ("phi", "phihat", "theta", "e", "bracket")


@dataclass(frozen=True, eq=False, repr=False)
class SchurElt(Combination):
    """A finitely supported combination of basis elements of S_q(n, r)."""

    TAG = "basis"
    KEYS = dict.fromkeys(BASES, PeriodicMatrix)

    n: int
    r: int
    basis: str = "phi"
    terms: Mapping[PeriodicMatrix, LaurentPoly] = field(default_factory=dict)

    def __mul__(self, other: "SchurElt") -> "SchurElt":
        self._check_compatible(other)
        if self.basis == "phi":
            return phi_mul(self, other)
        if self.basis == "theta":
            return theta_mul(self, other)
        raise BasisMismatch(f"no direct product in basis {self.basis!r}; convert first")


def phi_elt(A: PeriodicMatrix, coeff: "LaurentPoly | int" = 1) -> SchurElt:
    return SchurElt(A.n, A.r, "phi", {A: coeff})


def theta_elt(A: PeriodicMatrix, coeff: "LaurentPoly | int" = 1) -> SchurElt:
    return SchurElt(A.n, A.r, "theta", {A: coeff})


@functools.lru_cache(maxsize=None)
def poincare_h(mu: Composition) -> LaurentPoly:
    """h_mu = t^{-l(w_{0,mu})} sum_{w in W_mu} t^{2 l(w)}."""
    shift = -longest_in_parabolic(mu).length
    out = ZERO
    for w in young_elements(mu):
        out = out + t_pow(shift + 2 * w.length)
    return out


# ---------------------------------------------------------------------------
# The standard basis as endomorphisms of the induced modules


def _expand_in_TD(
    h: HeckeElt, lam: Composition, mu: Composition
) -> dict[AffPerm, LaurentPoly]:
    """Expand h in the double-coset sums T_D of H_{lam,mu}; keys are minimal reps."""
    work = dict(h.terms)
    out: dict[AffPerm, LaurentPoly] = {}
    while work:
        w = min(work, key=lambda x: x.sort_key)
        rep = min_double_rep(w, lam, mu)
        c = work[w]
        for x in coset_of(lam, rep, mu):
            cx = work.pop(x, ZERO)
            if cx != c:
                raise NotInModule(f"coefficients not constant on the double coset of {rep}")
        out[rep] = c
    return out


def _phi_terms(h: HeckeElt, lam: Composition, mu: Composition) -> tuple:
    """h in H_{lam,mu} as phi-basis terms: a tuple of (matrix, coeff) sorted by matrix."""
    reps = _expand_in_TD(h, lam, mu)
    terms = ((matrix_of(lam, rep, mu), c) for rep, c in reps.items())
    return tuple(sorted(terms, key=lambda p: p[0].sort_key))


def phi_apply(A: PeriodicMatrix, h: HeckeElt) -> HeckeElt:
    """Apply the standard basis endomorphism phi_A to h in x_mu H (mu = co(A))."""
    # W_mu z {e} is the right coset W_mu z, so this writes h = sum_z c_z x_mu T_z
    parts = _expand_in_TD(h, A.co, Composition(h.r, (1,) * h.r))
    return h_mul(coset_sum_TD(A), HeckeElt(h.r, "T", parts))


@functools.lru_cache(maxsize=None)
def _phi_pair(A: PeriodicMatrix, B: PeriodicMatrix) -> tuple:
    """phi_A . phi_B expanded in the phi basis, as a tuple of (matrix, coeff)."""
    if A.co != B.ro:
        return ()
    zs = {z: ONE for z in double_coset(B) if not (z.left_descents & A.co.gens)}
    return _phi_terms(h_mul(coset_sum_TD(A), HeckeElt(A.r, "T", zs)), A.ro, B.co)


def phi_mul(a: SchurElt, b: SchurElt) -> SchurElt:
    """Composition product of phi-basis elements (zero unless colors match)."""
    if a.basis != "phi" or b.basis != "phi":
        raise BasisMismatch("phi_mul expects phi-basis elements")
    return SchurElt(a.n, a.r, "phi", bilinear(a.terms, b.terms, _phi_pair))


# ---------------------------------------------------------------------------
# The canonical basis


def alpha_coeff(z: AffPerm, A: PeriodicMatrix) -> LaurentPoly:
    """The coefficient alpha_{z,w} = t^{-l(w+)} P_{z+,w+} of T_{W zW} in C_{w+}, w+ = w_A^+."""
    wp = plus_rep(A)
    zp = plus_rep(matrix_of(A.ro, z, A.co))
    return t_pow(-wp.length) * hecke.kl_poly(zp, wp)


@functools.lru_cache(maxsize=None)
def _theta_phihat(B: PeriodicMatrix) -> tuple:
    """theta_B over the phihat basis: unitriangular with strictly lower tail."""
    lam, mu = B.ro, B.co
    wp = plus_rep(B)
    out = []
    for zp in bruhat_lower(wp):
        if not is_max_double_rep(zp, lam, mu):
            continue
        coeff = t_pow(zp.length - wp.length) * hecke.kl_poly(zp, wp)
        out.append((matrix_of(lam, zp, mu), coeff))
    return tuple(sorted(out, key=lambda p: p[0].sort_key))


def theta_in_phihat(B: PeriodicMatrix) -> SchurElt:
    """Expand theta_B in the phihat basis."""
    return SchurElt(B.n, B.r, "phihat", dict(_theta_phihat(B)))


def basis_convert(a: SchurElt, target: str) -> SchurElt:
    """Exact conversion among the phi / phihat / theta / e / bracket bases.

    phihat_A = t^{-d_A} phi_A, and theta is unitriangular over phihat."""
    src = "phi" if a.basis == "e" else "phihat" if a.basis == "bracket" else a.basis
    dst = "phi" if target == "e" else "phihat" if target == "bracket" else target
    terms = dict(a.terms)
    if src != dst:
        if src == "phi":
            terms = {A: c * t_pow(d_A_coxeter(A)) for A, c in terms.items()}
        elif src == "theta":
            terms = linear(terms, _theta_phihat)
        # now terms are over phihat
        if dst == "phi":
            terms = {A: c * t_pow(-d_A_coxeter(A)) for A, c in terms.items()}
        elif dst == "theta":
            by_length = lambda A: (plus_rep(A).length, A.sort_key)
            terms = peel(terms, by_length, lambda B: (ONE, _theta_phihat(B)))
    return SchurElt(a.n, a.r, target, terms)


# ---------------------------------------------------------------------------
# Structure constants in the theta basis


def _max_terms(x: AffPerm, y: AffPerm, lam: Composition, nu: Composition) -> tuple:
    out = []
    for z, h in h_expansion(x, y).items():
        if not is_max_double_rep(z, lam, nu):
            raise NotInModule(f"product term {z} is not maximal in its double coset")
        out.append((matrix_of(lam, z, nu), z, h))
    return tuple(sorted(out, key=lambda p: p[0].sort_key))


# Each product C_x C_y of maximal representatives is read once, keyed by
# (x, y, lam, nu), and each quotient h / h_mu is taken once per distinct pair;
# both are read by g_expansion and gamma_mat_expansion, not by the phi route.
_MAX_TERMS = Memo(_max_terms)
_QUOTIENTS = Memo(lambda h, hmu: h.exact_div(hmu))


def max_rep_terms(A: PeriodicMatrix, B: PeriodicMatrix) -> tuple:
    """The terms (C, z, h_{x,y,z}) of C_x C_y for x = w_A^+ and y = w_B^+,
    sorted by C; empty unless co(A) = ro(B).

    Every Hecke term C_x C_y with x, y maximal double-coset representatives is
    supported on maximal representatives again, so each z in the expansion
    is w_C^+ for a unique matrix C.
    """
    if A.co != B.ro:
        return ()
    return _MAX_TERMS[plus_rep(A), plus_rep(B), A.ro, B.co]


@functools.lru_cache(maxsize=None)
def g_expansion(A: PeriodicMatrix, B: PeriodicMatrix) -> tuple:
    """theta_A theta_B = sum g_{A,B,C} theta_C, via exact division by h_mu."""
    hmu = poincare_h(A.co)
    return tuple((C, _QUOTIENTS[h, hmu]) for C, _, h in max_rep_terms(A, B))


def g_struct(A: PeriodicMatrix, B: PeriodicMatrix, C: PeriodicMatrix) -> LaurentPoly:
    """The structure constant g_{A,B,C} of the theta basis."""
    if A.co != B.ro or (A.ro, B.co) != (C.ro, C.co):
        return ZERO
    for C2, g in g_expansion(A, B):
        if C2 == C:
            return g
    return ZERO


def theta_mul(a: SchurElt, b: SchurElt) -> SchurElt:
    """Product in the theta basis (bilinear extension of g_expansion)."""
    if a.basis != "theta" or b.basis != "theta":
        raise BasisMismatch("theta_mul expects theta-basis elements")
    return SchurElt(a.n, a.r, "theta", bilinear(a.terms, b.terms, g_expansion))


def theta_mul_lemma42(A: PeriodicMatrix, B: PeriodicMatrix) -> SchurElt:
    """Fast path theta_A theta_B = theta_C for A = (lam,1,mu) with W_lam inside W_mu."""
    if not min_rep(A).is_identity() or not (A.ro.gens <= A.co.gens) or A.co != B.ro:
        raise NotInModule("lemma 4.2 fast path needs A = (lam,1,mu) with W_lam <= W_mu")
    return theta_elt(matrix_of(A.ro, plus_rep(B), B.co))


def theta_mul_lemma61(A: PeriodicMatrix, B: PeriodicMatrix) -> SchurElt:
    """Fast path theta_A theta_B = theta_C for B = (mu,1,nu) with W_nu inside W_mu."""
    if not min_rep(B).is_identity() or not (B.co.gens <= B.ro.gens) or A.co != B.ro:
        raise NotInModule("lemma 6.1 fast path needs B = (mu,1,nu) with W_nu <= W_mu")
    return theta_elt(matrix_of(A.ro, plus_rep(A), B.co))


# ---------------------------------------------------------------------------
# The bar involution


@functools.lru_cache(maxsize=None)
def _bar_phi(B: PeriodicMatrix) -> tuple:
    """bar(phi_B) in the phi basis, pulled back through the defining property."""
    lam, mu = B.ro, B.co
    # bar(phi_B)(C_{w0mu}) = bar(phi_B(C_{w0mu})) = t^{-l(w0mu)} bar(T_{D_B});
    # matching against phi_z(C_{w0mu}) = t^{-l(w0mu)} T_{D_z} leaves q^{l(w0mu)}.
    g = h_bar(coset_sum_TD(B)).scale(t_pow(2 * longest_in_parabolic(mu).length))
    return _phi_terms(g, lam, mu)


def schur_bar(a: SchurElt) -> SchurElt:
    """The bar involution of the q-Schur algebra (semilinear, fixes every theta_B)."""
    barred = {B: c.bar() for B, c in basis_convert(a, "phi").terms.items()}
    return basis_convert(SchurElt(a.n, a.r, "phi", linear(barred, _bar_phi)), a.basis)


# ---------------------------------------------------------------------------
# Miscellany


def theta_apply(B: PeriodicMatrix, h: HeckeElt) -> HeckeElt:
    """theta_B as a map x_mu H -> x_lam H (used to check theta_B(C_{w0mu}) = C_{w+})."""
    phi = basis_convert(theta_elt(B), "phi")
    return HeckeElt(h.r, "T", linear(phi.terms, lambda A: phi_apply(A, h).terms.items()))


def schur_identity(n: int, r: int) -> SchurElt:
    """The unit sum of diagonal theta_lambda over all compositions."""
    terms = {PeriodicMatrix.diagonal(lam): ONE for lam in compositions(n, r)}
    return SchurElt(n, r, "theta", terms)


def omega_comp(n: int, r: int) -> Composition:
    """The composition (1^r, 0^{n-r}) giving the Hecke embedding (needs n >= r)."""
    if n < r:
        raise NotInModule(f"omega needs n >= r, got ({n},{r})")
    return Composition(n, (1,) * r + (0,) * (n - r))


def embed_hecke(h: HeckeElt, n: int) -> SchurElt:
    """The embedding T_w -> phi_{omega,omega}^w of the Hecke algebra (n >= r)."""
    om = omega_comp(n, h.r)
    terms = {matrix_of(om, w, om): c for w, c in h.terms.items()}
    return SchurElt(n, h.r, "phi", terms)
