"""The extended affine Hecke algebra: T-basis arithmetic, the bar involution,
Kazhdan-Lusztig polynomials, both canonical bases, and structure constants.

Conventions.  The ground ring is Z[t, 1/t] with q = t^2.  The T-basis obeys
(T_s + 1)(T_s - q) = 0 and T_w T_w' = T_ww' whenever lengths add; T_rho
multiplies length-freely.  C_w = t^{-l(w)} sum_{y <= w} P_{y,w}(q) T_y is the
positive canonical basis and C'_w = (-1)^{l(w)} j(C_w) its signed twin; both
are bar-invariant.

The bar involution sends T_w to T_{w^{-1}}^{-1}.  That element is built once
per w from that of sw, for s the lowest left descent of w, with T_s^{-1} =
q^{-1} T_s + (q^{-1} - 1) on the left, by the descent driver, and is memoized;
it uses the T-basis rule alone and never the KL layer, so bar(C_w) = C_w stays
an independent oracle.  The table holds it as integer codes, one per term
d T_x, naming x and d by table-local dense ids (int-keyed, as du Cloux's tables
are).  h_bar and psi share one kernel: the terms are grouped by equal
coefficient, the codes of a group counted in C, and each distinct code summed once.

Both canonical-basis computations below run one recursion, Kazhdan-Lusztig's
rule along the lowest-index left descent s = s_i of x: f(x) is made from
f(sx) and from f(z) for the z with mu(z, sx) != 0 and sz < z.  The package's
one descent driver, affperm.descend, makes them in the order a recursion
would, on an explicit work stack, so nothing recurses per letter.  One
list per w of the nonzero mu(z, w), z < w with l(w) - l(z) odd, and one memo
of its filter by sz < z per (w, i), feed both.

Kazhdan-Lusztig polynomials are made a row at a time.  For v = sw, one pass
over y <= w sets P_{y,w} = P_{sy,v} + q P_{y,v} if sy < y, else
q P_{sy,v} + P_{y,v}, less mu(z, v) t^{l(w)-l(z)} P_{y,z} read off each row
z over [e, z].  The memo holds one row per w, y -> P_{y,w}, as du Cloux
keeps KL data per w; y and w lie in W' (P is invariant under a common rho
twist).  A row is full once it holds every y <= w; filling the row of w adds
zero records to the row of v for the y in [e, w] outside [e, v].  A loaded
row is checked against [e, w] when first read: a nonzero record with y not
<= w raises KLInvariantViolation.  The kernel steps are memoized on interned
values, each s_i y is read from the generator table of y (AffPerm.left), and
each stored record passes kl_record_valid, the check a cache load also makes
(the shape once per value, the degree bound per record).  In kl_memo_stats,
`computed` counts the records the kernel stored, zero records included, and
`hits` the reads served from the memo.  Correctness is not taken on faith:
the acceptance suite re-derives bar(C_w) = C_w and the degree bounds over
whole balls.

Structure constants are computed in the C-basis through the W-graph, never
through the T-basis.  For s a simple reflection, C_s C_w = (t + 1/t) C_w when
sw < w, and C_s C_w = C_{sw} + sum mu(z, w) C_z over z < w with sz < z
otherwise (Kazhdan-Lusztig 1979, (2.3.a-b)).  So C_x C_y = C_s (C_sx C_y) -
sum mu(z, sx) C_z C_y over the same z.  One memo holds every product on
(x, y) the driver makes, once, as a read-only mapping in sort_key order that
h_expansion hands out as it is.  The T-basis route (h_mul of the two C_w,
peeled back by t_to_c) stays as the oracle.

Polynomials in q are represented in t with even exponents throughout.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from . import affperm
from .affperm import AffPerm, bruhat_lower, descend
from .errors import BasisMismatch, KLInvariantViolation, PeriodMismatch
from .interned import Memo
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
    "kl_shaped",
    "kl_record_valid",
    "kl_memo_stats",
    "kl_memo",
    "kl_memo_rows",
    "kl_memo_insert",
]


@dataclass(frozen=True, eq=False, repr=False)
class HeckeElt(Combination):
    """A finitely supported A-linear combination of basis elements T_w or C_w."""

    TAG = "basis"
    KEYS = {"T": AffPerm, "C": AffPerm}

    r: int
    basis: str = "T"
    terms: Mapping[AffPerm, LaurentPoly] = field(default_factory=dict)

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        return h_mul(self, other)


def t_elt(w: AffPerm, coeff: "LaurentPoly | int" = 1) -> HeckeElt:
    return HeckeElt(w.r, "T", {w: coeff})


# ---------------------------------------------------------------------------
# T-basis multiplication


_Q_MINUS_ONE = Q - 1


@functools.lru_cache(maxsize=None)
def _t_product(u: AffPerm, v: AffPerm) -> HeckeElt:
    """T_u T_v: T_u T_{rho^omega}, then times T_s for each letter s of the reduced
    word of v; x T_s = T_{xs} if xs > x, and q T_{xs} + (q - 1) T_x otherwise."""
    omega, word = v.reduced_word()
    terms = {u * affperm.rho(u.r, omega): ONE}
    for i in word:
        s = affperm.generator(u.r, i)

        def image(x: AffPerm):
            xs = x * s
            return ((xs, ONE),) if xs.length > x.length else ((xs, Q), (x, _Q_MINUS_ONE))

        terms = linear(terms, image)
    return HeckeElt(u.r, "T", terms)


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


class _Ids(dict):
    """Dense ids 0, 1, 2, ... for hashable keys, and of[i], the key of id i.  A
    miss assigns the next id under the lock: no key gets two ids."""

    def __init__(self):
        super().__init__()
        self.of: list = []

    def __missing__(self, key) -> int:
        with _IDS_LOCK:
            if key not in self:
                self.of.append(key)
                self[key] = len(self.of) - 1
        return self[key]


# The bar table: _ROWS[y] holds T_{y^{-1}}^{-1}, made by descend from the row
# of s_i y for s_i the lowest left descent of y, as a tuple of codes, one per
# term d T_x, a code being the id of the pair (id of x, id of d).  The ids are
# table-local: the bar oracle shares nothing with the KL layer.  Memos:
# (id of x, i) -> (id of s_i x, s_i x > x); (a, d) -> the id of q^{-1} d for a
# None, else of a + (q^{-1} - 1) d; f -> {id of d: terms of f d}, per factor f met.
_IDS_LOCK = threading.Lock()
_KEY_IDS, _COEFF_IDS, _CODES = _Ids(), _Ids(), _Ids()
_ZERO_ID, _ONE_ID = _COEFF_IDS[ZERO], _COEFF_IDS[ONE]
_ROWS: dict[AffPerm, tuple[int, ...]] = {}


def _x_step(x: int, i: int) -> tuple[int, bool]:
    u = _KEY_IDS.of[x]
    su = u.left(i)
    return _KEY_IDS[su], su.length > u.length


def _d_step(a: "int | None", d: int) -> int:
    coeffs = _COEFF_IDS.of
    return _COEFF_IDS[coeffs[d] * QINV if a is None else coeffs[a] + coeffs[d] * (QINV - 1)]


_X_STEPS, _D_STEPS = Memo(_x_step), Memo(_d_step)
_PRODUCT_TERMS = Memo(lambda f: Memo(lambda d: tuple((f * _COEFF_IDS.of[d]).items())))


def _bar_row(w: AffPerm) -> tuple[int, ...]:
    """The codes of T_{w^{-1}}^{-1}, built once per w by descend.

    For s the lowest-index left descent of w, T_{w^{-1}}^{-1} equals
    T_s^{-1} T_{(sw)^{-1}}^{-1}; with no left descent w = rho^a is its own value.
    """
    return descend(w, _ROWS.get, lambda e: _ROWS.setdefault(e, (_CODES[_KEY_IDS[e], _ONE_ID],)),
                   _bar_step)


def _bar_step(w: AffPerm, i: int, row: tuple[int, ...], _) -> None:
    """Store the row of w from the row of s_i w, mapping each T_x to
    T_s^{-1} T_x = q^{-1} T_{sx} + (q^{-1} - 1) T_x if sx > x, else to T_{sx}."""
    old = dict(map(_CODES.of.__getitem__, row))
    new = {}
    for x, d in old.items():
        sx, up = _X_STEPS[x, i]
        if up:
            new[sx] = _D_STEPS[None, d]
            new[x] = _D_STEPS[old.get(sx, _ZERO_ID), d]
        # else T_s^{-1} T_x = T_sx, added at sx: sx < x lies in [e, sw], the row's support
    _ROWS.setdefault(w, tuple(_CODES[p] for p in new.items() if p[1] != _ZERO_ID))


def _bar_t(w: AffPerm) -> HeckeElt:
    """The element (T_{w^{-1}})^{-1} in the T-basis, read from the bar table."""
    keys, coeffs, pairs = _KEY_IDS.of, _COEFF_IDS.of, _CODES.of
    return HeckeElt(w.r, "T", {keys[x]: coeffs[d] for x, d in map(pairs.__getitem__, _bar_row(w))})


def _bar_sum(r: int, factors: Mapping[AffPerm, LaurentPoly]) -> HeckeElt:
    """sum_y f_y T_{y^{-1}}^{-1} for factors {y: f_y}: the kernel of h_bar and psi.
    The codes of the rows of one f are counted in C (collections.Counter), and
    a code of (x, d) met n times adds n f d to the exponent dict of x once."""
    groups: dict[LaurentPoly, list[tuple[int, ...]]] = {}
    for y, f in factors.items():
        groups.setdefault(f, []).append(_ROWS.get(y) or _bar_row(y))
    pairs = _CODES.of
    acc: dict[int, dict[int, int]] = {}
    for f, rows in groups.items():
        products = _PRODUCT_TERMS[f]
        for code, n in Counter(itertools.chain.from_iterable(rows)).items():
            x, d = pairs[code]
            fd = products[d]
            row = acc.get(x)
            if row is None:
                row = acc[x] = {}
            for e, c in fd:
                row[e] = row.get(e, 0) + n * c
    keys = _KEY_IDS.of
    return HeckeElt(r, "T", {keys[x]: p for x, row in acc.items() if (p := LaurentPoly(row))})


def h_bar(a: HeckeElt) -> HeckeElt:
    """The bar involution: coefficients bar'd, T_w replaced by T_{w^{-1}}^{-1}."""
    if a.basis != "T":
        raise BasisMismatch("h_bar acts on T-basis elements")
    bars: dict[LaurentPoly, LaurentPoly] = {}  # each distinct coefficient is bar'd once
    return _bar_sum(a.r, {w: bars.get(c) or bars.setdefault(c, c.bar())
                          for w, c in a.terms.items()})


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig polynomials

# One row per w: _KL[w][y] = P_{y,w}, the row made on first use.  A row is full
# once it holds every y <= w (_FULL); rows and records are stored with
# setdefault, so threads sharing the memo lose nothing.
_KL = Memo(lambda w: {})
_FULL: set[AffPerm] = set()
_KL_STATS = {"hits": 0, "computed": 0, "loaded": 0}
# One object per distinct value (most records are 0, 1 or 1 + q), and one per
# coefficient t^{-l} P of C_w; LaurentPoly values are never mutated in place.
_POLYS = Memo(lambda p: p)  # _POLYS[p] is the one object equal to p
_POLYS.update({ZERO: ZERO, ONE: ONE})
_C_COEFFS = Memo(lambda p, length: p * t_pow(-length))
# The row kernel's memos, over interned values: (P_{sy,v}, P_{y,v}, sy < y) ->
# the step-1 value; (value, mu, k, P_{y,z}) -> value - mu t^k P_{y,z}; a value ->
# its t-degree if kl_shaped, else infinity.  s_i y is read from the table of y.
_STEPS = Memo(lambda a, b, down: _POLYS[a + Q * b if down else Q * a + b])
_CORRECTIONS = Memo(lambda val, mu, k, p: _POLYS[val - p * t_pow(k, mu)])
_DEGREES = Memo(lambda p: p.degree() if kl_shaped(p) else float("inf"))


def kl_memo_stats() -> dict:
    return dict(_KL_STATS, entries=sum(map(len, list(_KL.values()))), full_rows=len(_FULL),
                distinct_polys=len(_POLYS), shared_elements=affperm.shared_elements(),
                kernel_memos={"steps": len(_STEPS), "corrections": len(_CORRECTIONS),
                              "degrees": len(_DEGREES), "mu_filter": len(_MU_FILTER)})


def kl_memo() -> dict[tuple[AffPerm, AffPerm], LaurentPoly]:
    """A copy of the memo table as a dict (y, w) -> P_{y,w}, y and w in W'."""
    return {(y, w): p for w, row in kl_memo_rows() for y, p in list(row.items())}


def kl_memo_rows():
    """Yield (w, read-only row y -> P_{y,w}) for each w with a row.  The walk
    copies the keys of the table first, so another thread may insert meanwhile."""
    return ((w, MappingProxyType(row)) for w, row in list(_KL.items()))


def kl_memo_insert(y: AffPerm, w: AffPerm, p: LaurentPoly) -> bool:
    """Seed the memo table with P_{y,w} for y, w in W' (used by the disk cache);
    duplicate keys are ignored."""
    row = _KL[w]
    if y in row:
        return False
    if _FULL and w in _FULL and not p.is_zero():
        # a full row holds every y <= w, so this y is not below w
        raise KLInvariantViolation(f"P_{{y,w}} = {p!r} is nonzero for y = {y} not <= w = {w}")
    row.setdefault(y, _POLYS[p])
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
        _full(w)  # a loaded row is checked against [e, w] on its first read
        _KL_STATS["hits"] += 1
        return hit
    if y not in bruhat_lower(w):
        return ZERO
    return _kl_row(w)[y]


def _full(w: AffPerm) -> bool:
    """Whether the row of w holds every y <= w.  A row not yet full (a loaded
    one) is checked against [e, w] on each read until it is: a nonzero record
    with y not <= w raises KLInvariantViolation; zero records are legal."""
    if w not in _FULL and (row := _KL.get(w)) is not None:
        lower, n = bruhat_lower(w), len(row)
        extra = row.keys() - lower  # reads the stored hashes: no __hash__ calls
        for y in extra:
            if row[y] is not ZERO:  # row values are interned: a zero is ZERO
                raise KLInvariantViolation(f"P_{{y,w}} = {row[y]!r} is nonzero for y = {y} not <= w = {w}")
        if n - len(extra) == len(lower):
            _FULL.add(w)
    return w in _FULL


def _kl_row(w: AffPerm) -> dict[AffPerm, LaurentPoly]:
    """The full row y -> P_{y,w} of w in W', filled first if need be, from the
    full rows of v = sw and of each z in the mu-list of v with sz < z."""
    return descend(w, lambda u: _KL[u] if _full(u) else None,
                   lambda e: _store(_KL[e], {e: ONE}), _fill_row, _mu_deps)


def _fill_row(w: AffPerm, i: int, prev: dict[AffPerm, LaurentPoly], zs) -> None:
    """Fill the row of w in one pass: for s = s_i, v = sw and prev the row of v,
    P_{y,w} = P_{sy,v} + q P_{y,v} if sy < y, else q P_{sy,v} + P_{y,v}, less
    mu(z,v) t^{l(w)-l(z)} P_{y,z} read off each full row z of zs ((z, mu), row)
    over its ideal [e, z] (no test y <= z per pair)."""
    lower = bruhat_lower(w)
    # the y in [e, w] outside [e, v] enter the row of v as zero records (the
    # set difference reads the stored hashes: no __hash__ calls)
    _store(prev, dict.fromkeys(lower.difference(prev), ZERO))
    new = {y: _STEPS[prev[y.left(i)], prev[y], i in y.left_descents] for y in lower}
    lw = w.length
    for (z, mu), row in zs:
        k = lw - z.length
        for y in bruhat_lower(z):
            new[y] = _CORRECTIONS[new[y], mu, k, row[y]]
    for y, p in new.items():
        if not kl_record_valid(y, w, p):
            raise KLInvariantViolation(f"KL recursion violated degree bounds at {(y, w)}: {p!r}")
    _store(_KL[w], new)
    _FULL.add(w)


def _store(row: dict[AffPerm, LaurentPoly], new: dict[AffPerm, LaurentPoly]) -> None:
    """Add to a row the records of new it lacks, counted as computed; a record
    already there (loaded, or stored by another thread) stays."""
    before = len(row)
    row.update({y: p for y, p in new.items() if y not in row} if before else new)
    _KL_STATS["computed"] += len(row) - before


def kl_shaped(p: LaurentPoly) -> bool:
    """The shape of every KL polynomial: zero, or a polynomial in q with constant term 1."""
    return p.is_zero() or (p.coeff(0) == 1 and p.in_q() and p.min_degree() >= 0)


def kl_record_valid(y: AffPerm, w: AffPerm, p: LaurentPoly) -> bool:
    """The checks on a record P_{y,w} = p, y and w in W', that need no Bruhat
    order: P_{w,w} = 1; otherwise p is kl_shaped, of q-degree at most
    (l(w) - l(y) - 1)/2 (checked once per distinct p, by _DEGREES)."""
    return p == ONE if y is w else _DEGREES[p] <= w.length - y.length - 1


@functools.lru_cache(maxsize=None)
def _mu_list(w: AffPerm) -> tuple[tuple[AffPerm, int], ...]:
    """The nonzero mu(z, w) with z < w and l(w) - l(z) odd; w lies in W'."""
    row, lw = _kl_row(w), w.length
    out = []
    for z in bruhat_lower(w):
        d = lw - z.length
        if d % 2:
            mu = row[z].coeff(d - 1)
            if mu:
                out.append((z, mu))
    return tuple(out)


# (w, i) -> the (z, mu) of the mu-list of w with s_i z < z: the one mu filter of
# the W-graph rule, read by the descent driver and by _add_left_gen.
_MU_FILTER = Memo(lambda w, i: tuple(p for p in _mu_list(w) if i in p[0].left_descents))
_mu_deps = lambda w, i: _MU_FILTER[w, i]  # the deps of descend for both canonical-basis walks


def kl_mu(y: AffPerm, w: AffPerm) -> int:
    """The coefficient of q^{(l(w)-l(y)-1)/2} in P_{y,w} (0 when not integral)."""
    return kl_poly(y, w).coeff(w.length - y.length - 1)


# ---------------------------------------------------------------------------
# Canonical bases


@functools.lru_cache(maxsize=None)
def c_elt(w: AffPerm) -> HeckeElt:
    """C_w = t^{-l(w)} sum_{y <= w} P_{y,w}(q) T_y, in the T-basis."""
    a, u = w.omega_split()
    lower, lu = bruhat_lower(u), u.length
    if _full(u):
        _KL_STATS["hits"] += len(lower)
    row = _kl_row(u)
    return HeckeElt(w.r, "T", {y.shift(a): _C_COEFFS[row[y], lu] for y in lower})


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


def _add_left_gen(out: dict, i: int, w: AffPerm, c: LaurentPoly) -> None:
    """Add c * C_{s_i} C_w to the C-basis term dict out (W-graph rule)."""
    if i in w.left_descents:
        out[w] = out.get(w, ZERO) + c * _T_PLUS_TINV
        return
    sw = w.left(i)
    out[sw] = out.get(sw, ZERO) + c
    for z, mu in _MU_FILTER[w, i]:
        out[z] = out.get(z, ZERO) + c * mu


_PRODUCTS: dict[tuple[AffPerm, AffPerm], Mapping[AffPerm, LaurentPoly]] = {}


@functools.lru_cache(maxsize=None)
def _h_expansion_core(u: AffPerm, v: AffPerm) -> Mapping[AffPerm, LaurentPoly]:
    """C_u C_v, held in _PRODUCTS unless u = e; the lru_cache only counts the
    pairs h_expansion asks for.

    For s = s_i the lowest left descent of x and x' = sx, C_x C_v is
    C_s (C_x' C_v) - sum mu(z, x') C_z C_v over z < x' with sz < z, made by
    the descent driver from the products of x' and of those z."""
    cv = MappingProxyType({v: ONE})

    def make(x, i, first, zs):
        out: dict[AffPerm, LaurentPoly] = {}
        for w, c in first.items():
            _add_left_gen(out, i, w, c)
        for (_, mu), p in zs:
            for w, c in p.items():
                out[w] = out.get(w, ZERO) - c * mu
        terms = sorted(((w, c) for w, c in out.items() if not c.is_zero()),
                       key=lambda p: p[0].sort_key)
        _PRODUCTS[x, v] = MappingProxyType(dict(terms))

    # a held product is never 0, and made(e) is C_v, so base is never called
    made = lambda x: _PRODUCTS.get((x, v)) or (cv if x.is_identity() else None)
    return descend(u, made, None, make, _mu_deps)


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
    return _bar_sum(a.r, {w: c.neg_t() * t_pow(2 * w.length, -1 if w.length % 2 else 1)
                          for w, c in a.terms.items()})


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
