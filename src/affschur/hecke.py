"""The extended affine Hecke algebra: T-basis arithmetic, the bar involution,
Kazhdan-Lusztig polynomials, both canonical bases, and structure constants.

Conventions.  The ground ring is Z[t, 1/t] with q = t^2.  The T-basis obeys
(T_s + 1)(T_s - q) = 0 and T_w T_w' = T_ww' whenever lengths add; T_rho
multiplies length-freely.  C_w = t^{-l(w)} sum_{y <= w} P_{y,w}(q) T_y is the
positive canonical basis and C'_w = (-1)^{l(w)} j(C_w) its signed twin; both
are bar-invariant.

The bar involution sends T_w to T_{w^{-1}}^{-1}.  That element is built once
per w from a shorter one, by a single right multiplication by T_s^{-1} =
q^{-1} T_s + (q^{-1} - 1) for s the lowest right descent of w, and is memoized;
it uses the T-basis rule alone and never the KL layer, so bar(C_w) = C_w stays
an independent oracle.

Kazhdan-Lusztig polynomials are produced by the classical left-multiplication
recursion: pick the lowest-index left descent s of w, combine P_{sy,sw} and
P_{y,sw}, and subtract mu(z, sw) P_{y,z} over z with sz < z and y <= z.  One
list per w, of the nonzero mu(z, w) with z < w and l(w) - l(z) odd, feeds
both this recursion and the C-basis product below; the recursion's Bruhat
tests are lookups in the cached lower ideals.  The memo table holds one row
per w, mapping each y to P_{y,w}, as du Cloux keeps KL data per w over the
elements below it; no pair (y, w) is stored.  Its y and w lie in W', the
rho-power split off (P is invariant under a common rho twist).  Correctness
is not taken on faith: the acceptance suite re-derives bar(C_w) = C_w and the
degree bounds over whole balls.

Structure constants are computed in the C-basis through the W-graph, never
through the T-basis.  For s a simple reflection, C_s C_w = (t + 1/t) C_w when
sw < w, and C_s C_w = C_{sw} + sum mu(z, w) C_z over z < w with sz < z
otherwise (Kazhdan-Lusztig 1979, (2.3.a-b)).  With s the lowest left descent
of x = s x' this gives C_x C_y = C_s (C_x' C_y) - sum mu(z, x') C_z C_y, again
over z < x' with sz < z.  Besides the mu-lists, one memo serves it: every
product on (x, y) the recursion forms.  The pairs that callers ask for are
counted apart, in the lru_cache of _h_expansion_core.  The T-basis route
(h_mul of the two C_w, peeled back by t_to_c) stays as the oracle.

Polynomials in q are represented in t with even exponents throughout.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from . import affperm
from .affperm import AffPerm, bruhat_lower
from .errors import BasisMismatch, KLInvariantViolation, PeriodMismatch
from .laurent import (
    ONE, Q, QINV, T, TINV, ZERO, Combination, LaurentPoly, bilinear, linear, peel, t_pow,
)
from .parabolic import Composition, PeriodicMatrix, double_coset, young_elements

__all__ = [
    "HeckeElt",
    "t_elt",
    "h_mul",
    "h_bar",
    "kl_poly",
    "kl_mu",
    "c_elt",
    "cprime_elt",
    "t_to_c",
    "c_to_t",
    "h_struct",
    "h_expansion",
    "x_lambda",
    "coset_sum_TD",
    "j_inv",
    "psi",
    "is_in_H_IJ",
    "kl_memo_stats",
    "kl_memo",
    "kl_memo_insert",
]


@dataclass(frozen=True, eq=False)
class HeckeElt(Combination):
    """A finitely supported A-linear combination of basis elements T_w or C_w."""

    r: int
    basis: str
    terms: Mapping[AffPerm, LaurentPoly] = field(default_factory=dict)

    def _validate(self) -> None:
        if self.basis not in ("T", "C"):
            raise BasisMismatch(f"unknown Hecke basis tag {self.basis!r}")
        for w in self.terms:
            if w.r != self.r:
                raise PeriodMismatch(f"term {w} has period {w.r}, element has {self.r}")

    def _check_compatible(self, other: "HeckeElt") -> None:
        if self.r != other.r:
            raise PeriodMismatch(f"periods {self.r} and {other.r} differ")
        if self.basis != other.basis:
            raise BasisMismatch(f"bases {self.basis} and {other.basis} differ")

    @staticmethod
    def _key_json(w: AffPerm) -> dict:
        return {"window": list(w.window)}

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        return h_mul(self, other)

    @staticmethod
    def from_json(obj: dict) -> "HeckeElt":
        r = obj["r"]
        terms = {
            AffPerm(r, tuple(t["window"])): LaurentPoly.from_json(t["coeff"])
            for t in obj["terms"]
        }
        return HeckeElt(r, obj.get("basis", "T"), terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"HeckeElt({self.r}, {self.basis}, 0)"
        bits = ", ".join(
            f"{self.basis}{w.window}: {c!r}"
            for w, c in sorted(self.terms.items(), key=lambda p: p[0].sort_key)
        )
        return f"HeckeElt({self.r}, {bits})"


def t_elt(w: AffPerm, coeff: "LaurentPoly | int" = 1) -> HeckeElt:
    if isinstance(coeff, int):
        coeff = LaurentPoly(coeff)
    return HeckeElt(w.r, "T", {w: coeff})


# ---------------------------------------------------------------------------
# T-basis multiplication


def _mul_gen_right(terms: Mapping[AffPerm, LaurentPoly], s: AffPerm, a: LaurentPoly,
                   b: LaurentPoly) -> dict:
    """Right-multiply a T-basis term dict by a T_s + b, for s a simple reflection.

    x T_s = T_{xs} if xs > x, and q T_{xs} + (q - 1) T_x otherwise.
    """
    aq, rest = a * Q, a * (Q - 1) + b

    def image(x: AffPerm):
        xs = x * s
        return ((xs, a), (x, b)) if xs.length > x.length else ((xs, aq), (x, rest))

    return linear(terms, image)


def _mul_word_right(
    terms: dict[AffPerm, LaurentPoly], r: int, omega: int, word: Iterable[int]
) -> dict:
    """Right-multiply by T_{rho^omega} then by T_{s_i} for each letter."""
    if omega:
        rho = affperm.rho(r, omega)
        terms = {w * rho: c for w, c in terms.items()}
    for i in word:
        terms = _mul_gen_right(terms, affperm.generator(r, i), ONE, ZERO)
    return terms


@functools.lru_cache(maxsize=None)
def _t_product(u: AffPerm, v: AffPerm) -> HeckeElt:
    omega, word = v.reduced_word()
    return HeckeElt(u.r, "T", _mul_word_right({u: ONE}, u.r, omega, word))


def h_mul(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """The product of two T-basis elements, expanded in the T-basis."""
    if a.r != b.r:
        raise PeriodMismatch(f"periods {a.r} and {b.r} differ")
    if a.basis != "T" or b.basis != "T":
        raise BasisMismatch("h_mul multiplies T-basis elements; convert first")
    terms = bilinear(a.terms, b.terms, lambda u, v: _t_product(u, v).terms.items())
    return HeckeElt(a.r, "T", terms)


# ---------------------------------------------------------------------------
# Bar involution


_TS_INV = (QINV, QINV - 1)  # T_s^{-1} = q^{-1} T_s + (q^{-1} - 1)


_BAR: dict[AffPerm, HeckeElt] = {}
# One object per distinct coefficient of the values in _BAR; a table of its
# own, so the bar oracle shares nothing with the KL layer.
_BAR_COEFFS: dict[LaurentPoly, LaurentPoly] = {}


def _bar_t(w: AffPerm) -> HeckeElt:
    """The element (T_{w^{-1}})^{-1} in the T-basis, memoized per w.

    For s the lowest-index right descent of w, T_{w^{-1}}^{-1} equals
    T_{(ws)^{-1}}^{-1} T_s^{-1}; with no right descent w = rho^a is its own value.
    The chain of such steps is walked down to a memoized element, then back
    up, in a loop: its length is l(w), too deep for recursion.
    """
    val = _BAR.get(w)
    chain = []
    while val is None and w.right_descents:
        s = affperm.generator(w.r, min(w.right_descents))
        chain.append((w, s))
        w = w * s
        val = _BAR.get(w)
    if val is None:
        val = _BAR[w] = HeckeElt(w.r, "T", {w: _BAR_COEFFS.setdefault(ONE, ONE)})
    for v, s in reversed(chain):
        terms = _mul_gen_right(val.terms, s, *_TS_INV)
        val = _BAR[v] = HeckeElt(v.r, "T", {x: _BAR_COEFFS.setdefault(c, c)
                                            for x, c in terms.items()})
    return val


def h_bar(a: HeckeElt) -> HeckeElt:
    """The bar involution: coefficients bar'd, T_w replaced by T_{w^{-1}}^{-1}."""
    if a.basis != "T":
        raise BasisMismatch("h_bar acts on T-basis elements")
    barred = {w: c.bar() for w, c in a.terms.items()}
    return HeckeElt(a.r, "T", linear(barred, lambda w: _bar_t(w).terms.items()))


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig polynomials

# One row per w: _KL[w][y] = P_{y,w}.  A row is created with setdefault and
# an entry stored with setdefault, so threads sharing the memo lose nothing.
_KL: dict[AffPerm, dict[AffPerm, LaurentPoly]] = {}
_KL_STATS = {"hits": 0, "computed": 0, "loaded": 0}
# One object per distinct memo value (most records are 0, 1 or 1 + q), and one
# per coefficient t^{-l} P of C_w; LaurentPoly values are never mutated in place.
_POLYS: dict[LaurentPoly, LaurentPoly] = {}
_C_COEFFS: dict[tuple[LaurentPoly, int], LaurentPoly] = {}


def _intern(p: LaurentPoly) -> LaurentPoly:
    return _POLYS.setdefault(p, p)


def _row(w: AffPerm) -> dict[AffPerm, LaurentPoly]:
    return _KL.get(w) or _KL.setdefault(w, {})


class _MemoView(Mapping):
    """The memo table read-only, as a mapping (y, w) -> P_{y,w}; rows() walks
    it one w at a time without building pairs.  The walks copy the keys first,
    so another thread may insert meanwhile."""

    __slots__ = ()

    def __getitem__(self, key):
        y, w = key
        return _KL[w][y]

    def __iter__(self):
        return ((y, w) for w, row in list(_KL.items()) for y in list(row))

    def __len__(self) -> int:
        return sum(map(len, list(_KL.values())))

    def rows(self):
        """Yield (w, read-only row y -> P_{y,w}) for each w with a row."""
        return ((w, MappingProxyType(row)) for w, row in list(_KL.items()))


def kl_memo_stats() -> dict:
    return dict(_KL_STATS, entries=len(kl_memo()), distinct_polys=len(_POLYS),
                shared_elements=affperm.shared_elements())


def kl_memo() -> _MemoView:
    """The memo table as a read-only mapping (y, w) -> P_{y,w}, y and w in W'."""
    return _MemoView()


def kl_memo_insert(y: AffPerm, w: AffPerm, p: LaurentPoly) -> bool:
    """Seed the memo table with P_{y,w} for y, w in W' (used by the disk cache);
    duplicate keys are ignored."""
    row = _row(w)
    if y in row:
        return False
    row.setdefault(y, _intern(p))
    _KL_STATS["loaded"] += 1
    return True


def kl_poly(y: AffPerm, w: AffPerm) -> LaurentPoly:
    """P_{y,w} as a polynomial in q = t^2 (zero unless y <= w; P_{w,w} = 1)."""
    if y.r != w.r:
        raise PeriodMismatch(f"periods {y.r} and {w.r} differ")
    ay, uy = y.omega_split()
    aw, uw = w.omega_split()
    if ay != aw:
        return ZERO
    return _kl(uy, uw)


def _kl(y: AffPerm, w: AffPerm) -> LaurentPoly:
    row = _KL.get(w)
    hit = row.get(y) if row is not None else None
    if hit is not None:
        _KL_STATS["hits"] += 1
        return hit
    if y == w:
        val = ONE
    elif y not in bruhat_lower(w):
        val = ZERO
    else:
        i = min(w.left_descents)
        s = affperm.generator(w.r, i)
        v = s * w
        sy = s * y
        if i in y.left_descents:
            val = _kl(sy, v) + Q * _kl(y, v)
        else:
            val = Q * _kl(sy, v) + _kl(y, v)
        for z, mu in _mu_list(v):
            if i in z.left_descents and y in bruhat_lower(z):
                val = val - mu * t_pow(w.length - z.length) * _kl(y, z)
        # P_{y,w} is a polynomial in q of q-degree <= (l(w) - l(y) - 1)/2
        if not val.in_q() or val.min_degree() < 0 or (
            val.degree() > w.length - y.length - 1
        ):
            raise KLInvariantViolation(f"KL recursion violated degree bounds at {(y, w)}: {val!r}")
    val = _row(w).setdefault(y, _intern(val))
    _KL_STATS["computed"] += 1
    return val


@functools.lru_cache(maxsize=None)
def _mu_list(w: AffPerm) -> tuple[tuple[AffPerm, int], ...]:
    """The nonzero mu(z, w) with z < w and l(w) - l(z) odd; w lies in W'."""
    lw = w.length
    out = []
    for z in bruhat_lower(w):
        d = lw - z.length
        if d % 2:
            mu = _kl(z, w).coeff(d - 1)
            if mu:
                out.append((z, mu))
    return tuple(out)


def kl_mu(y: AffPerm, w: AffPerm) -> int:
    """The coefficient of q^{(l(w)-l(y)-1)/2} in P_{y,w} (0 when not integral)."""
    return kl_poly(y, w).coeff(w.length - y.length - 1)


# ---------------------------------------------------------------------------
# Canonical bases


@functools.lru_cache(maxsize=None)
def c_elt(w: AffPerm) -> HeckeElt:
    """C_w = t^{-l(w)} sum_{y <= w} P_{y,w}(q) T_y, in the T-basis."""
    a, u = w.omega_split()
    lu = u.length
    return HeckeElt(w.r, "T", {y.shift(a): _c_coeff(_kl(y, u), lu) for y in bruhat_lower(u)})


def _c_coeff(p: LaurentPoly, length: int) -> LaurentPoly:
    """t^{-length} p for an interned memo value p, built once per (p, length)."""
    key = (p, length)
    c = _C_COEFFS.get(key)
    if c is None:
        c = _C_COEFFS[key] = p * t_pow(-length)
    return c


def cprime_elt(w: AffPerm) -> HeckeElt:
    """C'_w = (-1)^{l(w)} j(C_w), that is
    sum_{y <= w} (-1)^{l(w)-l(y)} t^{l(w)-2l(y)} P_{y,w}(1/q) T_y."""
    return j_inv(c_elt(w)).scale(-1 if w.length % 2 else 1)


def t_to_c(a: HeckeElt) -> HeckeElt:
    """Rewrite a T-basis element exactly in the C-basis (triangular peeling)."""
    if a.basis != "T":
        raise BasisMismatch("t_to_c expects a T-basis element")
    # C_w has coefficient t^{-l(w)} at T_w
    column = lambda w: (t_pow(w.length), c_elt(w).terms.items())
    return HeckeElt(a.r, "C", peel(a.terms, lambda w: w.sort_key, column))


def c_to_t(a: HeckeElt) -> HeckeElt:
    """Expand a C-basis element in the T-basis."""
    if a.basis != "C":
        raise BasisMismatch("c_to_t expects a C-basis element")
    return HeckeElt(a.r, "T", linear(a.terms, lambda w: c_elt(w).terms.items()))


# ---------------------------------------------------------------------------
# Structure constants h_{x,y,z}


_T_PLUS_TINV = T + TINV


def _add_left_gen(out: dict, i: int, s: AffPerm, w: AffPerm, c: LaurentPoly) -> None:
    """Add c * C_{s_i} C_w to the C-basis term dict out (W-graph rule)."""
    if i in w.left_descents:
        out[w] = out.get(w, ZERO) + c * _T_PLUS_TINV
        return
    sw = s * w
    out[sw] = out.get(sw, ZERO) + c
    for z, mu in _mu_list(w):
        if i in z.left_descents:
            out[z] = out.get(z, ZERO) + c * mu


_PRODUCTS: dict[tuple[AffPerm, AffPerm], tuple[tuple[AffPerm, LaurentPoly], ...]] = {}


def _c_product(u: AffPerm, v: AffPerm) -> tuple[tuple[AffPerm, LaurentPoly], ...]:
    # C_u = C_s C_u' - sum mu(z, u') C_z over z < u' with sz < z, for u = su' > u'
    hit = _PRODUCTS.get((u, v))
    if hit is not None:
        return hit
    if u.is_identity():
        return ((v, ONE),)
    i = min(u.left_descents)
    s = affperm.generator(u.r, i)
    up = s * u
    out: dict[AffPerm, LaurentPoly] = {}
    for w, c in _c_product(up, v):
        _add_left_gen(out, i, s, w, c)
    for z, mu in _mu_list(up):
        if i in z.left_descents:
            for w, c in _c_product(z, v):
                out[w] = out.get(w, ZERO) - c * mu
    terms = [(w, c) for w, c in out.items() if not c.is_zero()]
    val = _PRODUCTS[(u, v)] = tuple(sorted(terms, key=lambda p: p[0].sort_key))
    return val


@functools.lru_cache(maxsize=None)
def _h_expansion_core(u: AffPerm, v: AffPerm) -> Mapping[AffPerm, LaurentPoly]:
    # memo of the pairs h_expansion asks for; the sub-products stay in _PRODUCTS
    return MappingProxyType(dict(_c_product(u, v)))


def h_expansion(x: AffPerm, y: AffPerm) -> Mapping[AffPerm, LaurentPoly]:
    """The full expansion C_x C_y = sum_z h_{x,y,z} C_z as a read-only mapping.

    Computed once per rho-normalized pair: h_{rho^a u, v rho^b, rho^a z rho^b}
    equals h_{u,v,z}, so the memo key lives in W' x W'.
    """
    if x.r != y.r:
        raise PeriodMismatch(f"periods {x.r} and {y.r} differ")
    a, u = x.omega_split()
    b = y.omega_degree
    v = y * affperm.rho(y.r, -b) if b else y
    core = _h_expansion_core(u, v)
    if a == 0 and b == 0:
        return core
    return {z.shift(a, b): h for z, h in core.items()}


def h_struct(x: AffPerm, y: AffPerm, z: AffPerm) -> LaurentPoly:
    """The structure constant h_{x,y,z} of C_x C_y = sum h_{x,y,z} C_z."""
    return h_expansion(x, y).get(z, ZERO)


# ---------------------------------------------------------------------------
# Parabolic sums and the auxiliary involutions


@functools.lru_cache(maxsize=None)
def x_lambda(lam: Composition) -> HeckeElt:
    """x_lambda = sum of T_w over the Young subgroup W_lambda."""
    return HeckeElt(lam.r, "T", {w: ONE for w in young_elements(lam)})


def coset_sum_TD(A: PeriodicMatrix) -> HeckeElt:
    """T_D = sum of T_x over the double coset D of A."""
    return HeckeElt(A.r, "T", {x: ONE for x in double_coset(A)})


def j_inv(a: HeckeElt) -> HeckeElt:
    """The involution j: sum a_w T_w -> sum bar(a_w) (-q)^{-l(w)} T_w."""
    if a.basis != "T":
        raise BasisMismatch("j_inv acts on T-basis elements")
    terms = {}
    for w, c in a.terms.items():
        sign = -1 if w.length % 2 else 1
        terms[w] = c.bar() * t_pow(-2 * w.length, sign)
    return HeckeElt(a.r, "T", terms)


def psi(a: HeckeElt) -> HeckeElt:
    """The automorphism Psi: t -> -t, T_x -> (-q)^{l(x)} T_{x^{-1}}^{-1}."""
    if a.basis != "T":
        raise BasisMismatch("psi acts on T-basis elements")
    factors = {
        w: c.neg_t() * t_pow(2 * w.length, -1 if w.length % 2 else 1)
        for w, c in a.terms.items()
    }
    return HeckeElt(a.r, "T", linear(factors, lambda w: _bar_t(w).terms.items()))


def is_in_H_IJ(a: HeckeElt, lam: Composition, mu: Composition) -> bool:
    """True iff T_s a = q a = a T_s' for all s in I(lam), s' in I(mu)."""
    if a.basis != "T":
        raise BasisMismatch("is_in_H_IJ expects a T-basis element")
    qa = a.scale(Q)
    for i in lam.gens:
        if h_mul(t_elt(affperm.generator(a.r, i)), a) != qa:
            return False
    for i in mu.gens:
        if h_mul(a, t_elt(affperm.generator(a.r, i))) != qa:
            return False
    return True
