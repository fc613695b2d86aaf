"""The a-function, gamma-coefficients, asymptotic rings, cells, and the
Lusztig-property verification suite.

The a-function is a supremum over an infinite group, so every value computed
here is window-bounded and carries a certification flag.  A scanned maximum
is promoted to a certified value only when it reaches one of the two exact
ceilings: the global ceiling nu = l(w_0) of the finite symmetric group, or
the per-element ceiling Delta(z) = l(z) - 2 deg P_{1,z}.  Everything
downstream (gamma, the J-rings, cell partitions, the Q-suite) refuses or
reports "skipped" on uncertified data; it never silently trusts a scan.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
from dataclasses import dataclass, field
from typing import Mapping

from .affperm import AffPerm, ball, identity, rho_conjugate
from .errors import BasisMismatch, UncertifiedAValue, UncertifiedBoundary, WindowExceeded
from .hecke import HeckeElt, h_expansion, kl_poly
from .interned import Memo
from .laurent import ONE, ZERO, Combination, LaurentPoly, bilinear, linear
from .parabolic import (
    Composition,
    PeriodicMatrix,
    compositions,
    enumerate_theta,
    is_max_double_rep,
    matrix_of,
    plus_rep,
)
from .schur import SchurElt, g_expansion, g_struct, max_rep_terms

__all__ = [
    "AValue",
    "JElt",
    "CellReport",
    "nu",
    "delta_small",
    "delta_cap",
    "a_bounded",
    "certified_a",
    "gamma",
    "gamma_mat",
    "gamma_expansion",
    "distinguished_involutions",
    "is_distinguished",
    "dinv_schur",
    "j_elt",
    "j_mul",
    "j_identity_hecke",
    "j_identity_schur",
    "lusztig_phi_hecke",
    "lusztig_phi_schur",
    "lusztig_phi_elt",
    "hecke_sim_L",
    "cell_preorder",
    "lowest_cell",
    "based_ring_checks",
    "q_suite",
]


def nu(r: int) -> int:
    """The global a-ceiling: length of the longest element of the finite S_r."""
    return r * (r - 1) // 2


def delta_small(z: AffPerm) -> int:
    """delta(z) = deg_q P_{1,z}, with the rho-part of z matched on both sides."""
    _, u = z.omega_split()
    p = kl_poly(identity(z.r), u)
    return int(p.degree()) // 2


def delta_cap(z: AffPerm) -> int:
    """Delta(z) = l(z) - 2 delta(z), an exact upper bound for a(z)."""
    return z.length - 2 * delta_small(z)


@dataclass(frozen=True)
class AValue:
    """A window-bounded a-function value with its certification status."""

    value: int
    certified: bool
    witness: tuple[AffPerm, AffPerm] | None
    upper_bound: int
    scan_radius: int

    def to_json(self) -> dict:
        return {
            "a": self.value,
            "certified": self.certified,
            "upper_bound": self.upper_bound,
            "scan_radius": self.scan_radius,
            "witness": [list(w.window) for w in self.witness] if self.witness else None,
        }


class _Scan:
    """One resumable pass over ball(r, radius) x ball(r, radius), x before y.

    best[z] = (d, index, x, y) holds the highest degree d of h_{x,y,z} read so
    far and the first pair, by scan index, that reached it.  Every a_bounded
    query at this (r, radius) reads the same table and advances the shared
    cursor only as far as it needs.
    """

    def __init__(self, r: int, radius: int) -> None:
        self.elems = ball(r, radius)
        self.pos = 0
        self.best: dict[AffPerm, tuple[int, int, AffPerm, AffPerm]] = {}

    def step(self) -> bool:
        """Read the product at the cursor and advance; False once the ball is done."""
        n = len(self.elems)
        if self.pos == n * n:
            return False
        x, y = self.elems[self.pos // n], self.elems[self.pos % n]
        best = self.best
        for z, h in h_expansion(x, y).items():
            d = h.degree()
            hit = best.get(z)
            if hit is None or d > hit[0]:
                best[z] = (d, self.pos, x, y)
        self.pos += 1
        return True

    def top(self, conjugates) -> tuple[int, int, AffPerm, AffPerm] | None:
        """The highest degree over the conjugates, from the earliest pair."""
        hits = [e for e in map(self.best.get, conjugates) if e is not None]
        return max(hits, key=lambda e: (e[0], -e[1]), default=None)


# (r, radius) -> the one shared scan of that ball
_SCANS = Memo(_Scan)


def a_bounded(z: AffPerm, length_bound: int) -> AValue:
    """Scan deg h_{x,y,z} over the W' ball of the given radius (rho-reduced).

    Translates fold away on both sides, so the scan ranges over W' pairs and
    the r cyclic conjugates of z.  Certification happens exactly when the
    scanned maximum reaches min(nu, Delta(z)); the witness is the first pair,
    x before y in ball order, attaining it.  All queries at one (r, radius)
    share one resumable scan, so each product is read once.
    """
    return _A_CACHE[z.omega_split()[1], length_bound]


def _a_scan(zf: AffPerm, length_bound: int) -> AValue:
    r = zf.r
    cap = min(nu(r), delta_cap(zf))
    conjugates = {rho_conjugate(zf, b) for b in range(r)}
    scan = _SCANS[r, length_bound]
    # h_{e,z,z} = 1 always contributes degree 0
    while True:
        top = scan.top(conjugates)
        best = top[0] if top is not None and top[0] > 0 else 0
        if best >= cap or not scan.step():
            break
    witness = (top[2], top[3]) if best else (identity(r), zf)
    return AValue(best, best == cap, witness, cap, length_bound)


def certified_a(z: AffPerm, length_bound: int) -> AValue:
    """a_bounded with an adaptively widened scan radius until certification.

    The witness pairs needed for long elements live just past half their
    length, so the radius grows to that point and no further.
    """
    return _CERTIFIED[z.omega_split()[1], length_bound]


def _certify(zf: AffPerm, length_bound: int) -> AValue:
    max_radius = max(length_bound, (zf.length + 3) // 2 + 1)
    radius = length_bound
    av = a_bounded(zf, radius)
    while not av.certified and radius < max_radius:
        radius += 1
        av = a_bounded(zf, radius)
    return av


# (z in W', radius) -> a_bounded(z, radius), and -> certified_a(z, radius)
_A_CACHE, _CERTIFIED = Memo(_a_scan), Memo(_certify)


# ---------------------------------------------------------------------------
# gamma-coefficients


def _gammas(terms, length_bound: int) -> dict:
    """{key: gamma} over (key, z, h) terms, gamma the coefficient of t^{a(z)}
    in h, zeros dropped; UncertifiedAValue unless every a(z) is certified."""
    out = {}
    for key, z, h in terms:
        av = certified_a(z, length_bound)
        if not av.certified:
            raise UncertifiedAValue(f"a({z}) not certified at radius {av.scan_radius}")
        g = h.coeff(av.value)
        if g:
            out[key] = g
    return out


def gamma(x: AffPerm, y: AffPerm, z: AffPerm, length_bound: int = 4) -> int:
    """The coefficient of t^{a(z)} in h_{x,y,z}; requires a certified a(z)."""
    return _gammas([(z, z, h_expansion(x, y).get(z, ZERO))], length_bound).get(z, 0)


def gamma_expansion(
    x: AffPerm, y: AffPerm, length_bound: int = 4
) -> dict[AffPerm, int]:
    """All nonzero gamma_{x,y,z}: the J-ring product t_x t_y."""
    return _gammas(((z, z, h) for z, h in h_expansion(x, y).items()), length_bound)


def gamma_mat(
    A: PeriodicMatrix, B: PeriodicMatrix, C: PeriodicMatrix, length_bound: int = 4
) -> int:
    """gamma_{A,B,C}: the Hecke gamma of the sigma's, zero unless C is in the product."""
    return _gammas((t for t in max_rep_terms(A, B) if t[0] == C), length_bound).get(C, 0)


def gamma_mat_expansion(
    A: PeriodicMatrix, B: PeriodicMatrix, length_bound: int = 4
) -> dict[PeriodicMatrix, int]:
    """All nonzero gamma_{A,B,C}: the J_Schur product t_A t_B.

    gamma_{A,B,C} is the Hecke gamma of the longest representatives, so one
    read of C_{w_A^+} C_{w_B^+} serves every C.
    """
    return _gammas(max_rep_terms(A, B), length_bound)


# ---------------------------------------------------------------------------
# Distinguished involutions


def is_distinguished(z: AffPerm, length_bound: int = 4) -> bool:
    """True iff z is an involution with certified a(z) = Delta(z)."""
    if z.omega_degree != 0 or not (z * z).is_identity():
        return False
    av = certified_a(z, length_bound)
    if not av.certified:
        raise UncertifiedAValue(f"a({z}) not certified at radius {av.scan_radius}")
    return av.value == delta_cap(z)


def distinguished_involutions(r: int, length_bound: int) -> tuple[AffPerm, ...]:
    """All distinguished involutions found in the W' ball of the given radius.

    Raises UncertifiedBoundary if any a-value in the ball fails to certify at
    exactly this radius (no adaptive widening here, per the window contract).
    """
    out = []
    for z in ball(r, length_bound):
        av = a_bounded(z, length_bound)
        if not av.certified:
            raise UncertifiedBoundary(
                f"a({z}) uncertified at radius {length_bound}; enlarge the window"
            )
        if av.value == delta_cap(z) and (z * z).is_identity():
            out.append(z)
    return tuple(sorted(out, key=lambda w: w.sort_key))


def dinv_schur(
    n: int, r: int, length_bound: int, omega_window: tuple[int, int] | None = None
) -> tuple[PeriodicMatrix, ...]:
    """The distinguished matrices in the window: ro = co and sigma in D."""
    out = []
    for A in enumerate_theta(n, r, length_bound, omega_window):
        if A.ro == A.co and is_distinguished(plus_rep(A), length_bound):
            out.append(A)
    return tuple(sorted(out, key=lambda A: A.sort_key))


def dinv_schur_colored(
    n: int, r: int, mu: Composition, length_bound: int
) -> tuple[PeriodicMatrix, ...]:
    """D_Delta(n,r)_mu: distinguished matrices with ro = co = mu, via the Hecke D."""
    out = []
    for d in distinguished_involutions(r if r >= 2 else 1, length_bound):
        if is_max_double_rep(d, mu, mu):
            out.append(matrix_of(mu, d, mu))
    return tuple(sorted(set(out), key=lambda A: A.sort_key))


# ---------------------------------------------------------------------------
# The asymptotic rings


@dataclass(frozen=True, eq=False, repr=False)
class JElt(Combination):
    """An element of an asymptotic ring, over W (ring="J_W") or matrices
    (ring="J_Schur"); a J_W element has n = 0.

    Based-ring elements carry constant (integer) coefficients; the images of
    the Lusztig homomorphisms extend scalars to Laurent polynomials.
    """

    TAG = "ring"
    KEYS = {"J_W": AffPerm, "J_Schur": PeriodicMatrix}

    ring: str
    r: int
    n: int = 0
    terms: Mapping[object, LaurentPoly] = field(default_factory=dict)


def j_elt(key, ring: str | None = None, coeff: "LaurentPoly | int" = 1) -> JElt:
    """The basis element t_key of the appropriate asymptotic ring."""
    if isinstance(key, AffPerm):
        return JElt(ring or "J_W", key.r, 0, {key: coeff})
    return JElt(ring or "J_Schur", key.r, key.n, {key: coeff})


def j_mul(a: JElt, b: JElt, length_bound: int = 4) -> JElt:
    """The based-ring product t_x t_y = sum gamma_{x,y,z} t_z (both rings)."""
    expand = gamma_expansion if a.ring == "J_W" else gamma_mat_expansion
    return _j_product(a, b, lambda x, y: expand(x, y, length_bound))


def _j_product(a: JElt, b: JElt, expand) -> JElt:
    """sum a_x b_y t_x t_y, for expand(x, y) = {z: gamma_{x,y,z}}."""
    a._check_compatible(b)
    return JElt(a.ring, a.r, a.n, bilinear(a.terms, b.terms, lambda x, y: expand(x, y).items()))


def j_identity_hecke(r: int, length_bound: int) -> JElt:
    terms = {d: ONE for d in distinguished_involutions(r, length_bound)}
    return JElt("J_W", r, 0, terms)


def j_identity_schur(n: int, r: int, length_bound: int) -> JElt:
    terms: dict[object, LaurentPoly] = {}
    for lam in compositions(n, r):
        for D in dinv_schur_colored(n, r, lam, length_bound):
            terms[D] = ONE
    return JElt("J_Schur", r, n, terms)


# ---------------------------------------------------------------------------
# The Lusztig homomorphisms (A-coefficient images in the asymptotic rings)


def _phi(blocks, a_key, length_bound: int) -> dict:
    """sum h t_u over the (u, h) in each block (d, terms) with a(u) = a(d), a(k) being
    certified_a(a_key(k)); UncertifiedAValue if some term's a(u) is uncertified."""
    acc: dict[object, LaurentPoly] = {}
    for d, terms in blocks:
        ad = certified_a(a_key(d), length_bound)
        for u, h in terms:
            au = certified_a(a_key(u), length_bound)
            if not au.certified:
                raise UncertifiedAValue(f"a({u}) uncertified in the truncation of the Lusztig map")
            if au.value == ad.value:
                acc[u] = acc.get(u, ZERO) + h
    return acc


def lusztig_phi_hecke(w: AffPerm, length_bound: int) -> JElt:
    """phi(C_w) = sum over u and distinguished d with a(d) = a(u) of h_{w,d,u} t_u."""
    blocks = ((d, h_expansion(w, d).items()) for d in distinguished_involutions(w.r, length_bound))
    return JElt("J_W", w.r, 0, _phi(blocks, lambda u: u, length_bound))


def lusztig_phi_schur(A: PeriodicMatrix, length_bound: int) -> JElt:
    """Phi(theta_A) = sum over B and distinguished D colored co(A) with
    a(D) = a(B) of g_{A,D,B} t_B."""
    blocks = ((D, g_expansion(A, D)) for D in dinv_schur_colored(A.n, A.r, A.co, length_bound))
    return JElt("J_Schur", A.r, A.n, _phi(blocks, plus_rep, length_bound))


def lusztig_phi_elt(a: "HeckeElt | SchurElt", length_bound: int) -> JElt:
    """The A-linear extension of phi to a C-basis HeckeElt, or of Phi to a
    theta-basis SchurElt."""
    on_hecke = isinstance(a, HeckeElt)
    if a.basis != ("C" if on_hecke else "theta"):
        raise BasisMismatch(f"the Lusztig maps act on the C and theta bases, not {a.basis!r}")
    image = lusztig_phi_hecke if on_hecke else lusztig_phi_schur
    terms = linear(a.terms, lambda k: image(k, length_bound).terms.items())
    return JElt("J_W", a.r, 0, terms) if on_hecke else JElt("J_Schur", a.r, a.n, terms)


# ---------------------------------------------------------------------------
# Cells


@dataclass
class CellReport:
    """A window-bounded cell computation: preorder edges, the partition, and
    explicit caveats about what the window cannot decide."""

    flavor: str
    window: str
    elements: list
    edges: list[tuple[int, int]]
    cells: list[list[int]]
    caveats: list[str]
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def key_json(k):
            if isinstance(k, AffPerm):
                return list(k.window)
            return [list(e) for e in k.entries]

        return {
            "flavor": self.flavor,
            "window": self.window,
            "elements": [key_json(k) for k in self.elements],
            "edges": [list(e) for e in self.edges],
            "cells": [sorted(c) for c in self.cells],
            "caveats": self.caveats,
            "extra": self.extra,
        }


def _reach(n: int, edges: set[tuple[int, int]]) -> list[int]:
    """reach[i], as a bitset (a Python int): bit j is set iff j is reached from
    i in the reflexive-transitive closure of the edges (Warshall's algorithm)."""
    reach = [1 << i for i in range(n)]
    for a, b in edges:
        reach[a] |= 1 << b
    for k in range(n):
        bit, row = 1 << k, reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= row
    return reach


def _left_cells(items, related) -> list[list]:
    """The classes of items in order: each item joins the first class whose
    first member it is related to, or opens a new one."""
    classes: list[list] = []
    for x in items:
        for cls in classes:
            if related(x, cls[0]):
                cls.append(x)
                break
        else:
            classes.append([x])
    return classes


def hecke_sim_L(x: AffPerm, y: AffPerm, length_bound: int = 4) -> bool:
    """x ~L y in W, by the exact criterion t_x t_{y^{-1}} != 0."""
    return bool(gamma_expansion(x, y.inverse, length_bound))


def _one_step_edges(elements, side: str) -> set[tuple[int, int]]:
    """The sound one-step edges (a, b), as indexes into elements: a lies in
    the support of c.b (side L) or of b.c (side R) for some c in elements.
    Matrix pairs that do not compose (theta_x theta_y = 0) are skipped."""
    index = {k: i for i, k in enumerate(elements)}
    edges = set()
    for b in elements:
        for c in elements:
            x, y = (c, b) if side == "L" else (b, c)
            if isinstance(x, AffPerm):
                support = h_expansion(x, y).keys()
            elif x.co != y.ro:
                continue
            else:
                support = (C for C, _ in g_expansion(x, y))
            for a in support:
                ia = index.get(a)
                if ia is not None:
                    edges.add((ia, index[b]))
    return edges


def cell_preorder(elements, flavor: str = "L") -> CellReport:
    """Window-bounded cell preorder over Hecke elements or matrices.

    One-step relations come from products with left (flavor L), right
    (flavor R) or both (flavor LR) factors inside the window, then the
    reflexive-transitive closure is taken and its strongly-connected
    components reported as cells.  Because the quantified factor ranges only
    over the window, missing edges (never wrong edges) are possible; the
    caveats say so.
    """
    if flavor not in ("L", "R", "LR"):
        raise BasisMismatch(f"unknown cell flavor {flavor!r}")
    elements = sorted(set(elements), key=lambda k: k.sort_key)
    n = len(elements)
    edges = set().union(*(_one_step_edges(elements, side) for side in flavor))
    reach = _reach(n, edges)
    # the cells are the classes of mutual reach
    cells = {tuple(j for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1) for i in range(n)}
    return CellReport(
        flavor=flavor,
        window=f"{n} elements",
        elements=elements,
        edges=sorted(edges),
        cells=sorted(map(list, cells)),
        caveats=[
            "window-bounded: relations are sound but cells may merge or extend "
            "outside the window"
        ],
    )


def lowest_cell(
    n: int,
    r: int,
    length_bound: int,
    omega_window: tuple[int, int] | None = None,
) -> CellReport:
    """Members of the lowest two-sided cell in the window and its left cells.

    Membership is a(A) = nu (certified); the left-cell partition pairs the
    Hecke-level left cell of sigma(A) with the column composition co(A).
    """
    win = enumerate_theta(n, r, length_bound, omega_window)
    nu_r = nu(r)
    members = []
    for A in win:
        av = certified_a(plus_rep(A), length_bound)
        if not av.certified:
            raise UncertifiedAValue(f"a({A}) uncertified; enlarge the window")
        if av.value == nu_r:
            members.append(A)

    # partition the sigma values by Hecke ~L (exact criterion)
    sigmas = sorted({plus_rep(A) for A in members}, key=lambda w: w.sort_key)
    classes = _left_cells(sigmas, lambda s, rep: hecke_sim_L(s, rep, length_bound))
    sig_class = {s: ci for ci, cls in enumerate(classes) for s in cls}

    groups: dict[tuple, list[int]] = {}
    for i, A in enumerate(members):
        groups.setdefault((A.co.parts, sig_class[plus_rep(A)]), []).append(i)
    cells = sorted(sorted(g) for g in groups.values())
    return CellReport(
        flavor="L",
        window=f"(n={n}, r={r}, L={length_bound}, omega={omega_window or (-r, r)})",
        elements=members,
        edges=[],
        cells=cells,
        caveats=[
            "left cells computed inside the lowest two-sided cell only; the "
            "count is exact once every class is inhabited in the window"
        ],
        extra={
            "left_cell_count": len(cells),
            "nu": nu_r,
            "member_count": len(members),
            "certified": True,
        },
    )


# ---------------------------------------------------------------------------
# Based-ring checks and the Q-suite


class _Window:
    """The matrix window of one based-ring or Q-suite run.

    It holds the sorted, transpose-closed theta window, its certified
    a-values, an index by (ro, co), and a memo under which each decidable
    pair (A, B) reaches gamma_mat_expansion at most once; the memo lives only
    as long as the object.  What the Q-properties share is built on first use.
    """

    def __init__(self, n, r, length_bound, omega_window, q15_cap: int = 600) -> None:
        win = enumerate_theta(n, r, length_bound, omega_window)
        closed = set(win) | {A.transpose() for A in win}
        self.mats = tuple(sorted(closed, key=lambda A: A.sort_key))
        self.length_bound = length_bound
        self.q15_cap = q15_cap
        self.aval = {A: certified_a(plus_rep(A), length_bound) for A in self.mats}
        self.certified = [A for A in self.mats if self.aval[A].certified]
        self.by_color: dict[tuple, list[PeriodicMatrix]] = {}
        for A in self.mats:
            self.by_color.setdefault((A.ro, A.co), []).append(A)
        self._gamma = Memo(lambda A, B: gamma_mat_expansion(A, B, length_bound))
        self._hits: dict[PeriodicMatrix, list[tuple[PeriodicMatrix, int]]] = {}

    def gamma(self, A: PeriodicMatrix, B: PeriodicMatrix) -> dict[PeriodicMatrix, int]:
        """All nonzero gamma_{A,B,C}, as gamma_mat_expansion(A, B): it raises
        UncertifiedAValue for a product with a term of uncertified a-value."""
        return self._gamma[A, B]

    def a(self, A: PeriodicMatrix) -> int:
        """The certified a(A); UncertifiedAValue if the window could not certify it."""
        av = self.aval[A]
        if not av.certified:
            raise UncertifiedAValue(f"a({A.entries}) not certified at radius {av.scan_radius}")
        return av.value

    def mul(self, a: JElt, b: JElt) -> JElt:
        return _j_product(a, b, self.gamma)

    def sim_L(self, A: PeriodicMatrix, B: PeriodicMatrix) -> bool:
        """A ~L B, by the exact criterion t_A t_{B^t} != 0."""
        return bool(self.gamma(A, B.transpose()))

    def sim_R(self, A: PeriodicMatrix, B: PeriodicMatrix) -> bool:
        """A ~R B, i.e. A^t ~L B^t."""
        return bool(self.gamma(A.transpose(), B))

    def is_dinv(self, A: PeriodicMatrix) -> bool:
        return A.ro == A.co and is_distinguished(plus_rep(A), self.length_bound)

    def hits(self, A: PeriodicMatrix) -> list[tuple[PeriodicMatrix, int]]:
        """The distinguished D with gamma_{A^t,A,D} != 0, with those gammas."""
        hits = self._hits.get(A)
        if hits is None:
            gm = self.gamma(A.transpose(), A)
            hits = self._hits[A] = [(D, g) for D, g in gm.items() if self.is_dinv(D)]
        return hits

    def dinv(self, A: PeriodicMatrix) -> tuple[PeriodicMatrix, int]:
        """A's unique hit (D, gamma_{A^t,A,D}); WindowExceeded if there is none or several."""
        hits = self.hits(A)
        if len(hits) != 1:
            raise WindowExceeded(f"A={A.entries} has {len(hits)} distinguished involutions")
        return hits[0]

    @functools.cached_property
    def pairs(self) -> list[tuple[PeriodicMatrix, PeriodicMatrix]]:
        """The composable pairs of certified matrices."""
        return [(A, B) for A in self.certified for B in self.certified if A.co == B.ro]

    @functools.cached_property
    def preorder(self) -> dict[str, list[tuple[PeriodicMatrix, PeriodicMatrix]]]:
        """The L, R and LR preorders, from the sound one-step edges of in-window
        products."""
        win = self.mats
        edges_L, edges_R = _one_step_edges(win, "L"), _one_step_edges(win, "R")
        edges = {"L": edges_L, "R": edges_R, "LR": edges_L | edges_R}
        return {
            flavor: [(win[a], B) for a, bits in enumerate(_reach(len(win), e))
                     for b, B in enumerate(win) if bits >> b & 1]
            for flavor, e in edges.items()
        }

    @functools.cached_property
    def equal_a(self) -> dict[str, list[tuple[PeriodicMatrix, PeriodicMatrix]]]:
        """The pairs A != B of each preorder with certified a(A) = a(B)."""
        a = {A: av.value for A, av in self.aval.items() if av.certified}
        return {
            flavor: [(A, B) for A, B in rel if A != B and A in a and a.get(B) == a[A]]
            for flavor, rel in self.preorder.items()
        }

    @functools.cached_property
    def q15_sub(self) -> tuple[list, dict, dict, dict]:
        """Q15's certified matrices whose sigma has length <= _Q15_SUB_LENGTH,
        and their indexes by ro, by co and by (ro, co), the last with a-values."""
        sub = [A for A in self.certified if plus_rep(A).length <= _Q15_SUB_LENGTH]
        by_ro, by_co, by_color = (collections.defaultdict(list) for _ in range(3))
        for B in sub:
            by_ro[B.ro].append(B)
            by_co[B.co].append(B)
            by_color[B.ro, B.co].append((B, self.aval[B].value))
        return sub, by_ro, by_co, by_color


def based_ring_checks(
    n: int,
    r: int,
    length_bound: int,
    omega_window: tuple[int, int] | None = None,
) -> dict:
    """Verify the based-ring axioms for the matrix asymptotic ring on a window."""
    w = _Window(n, r, length_bound, omega_window)
    dd = set(dinv_schur(n, r, length_bound, omega_window))
    report = {
        "window_size": len(w.mats),
        "distinguished": len(dd),
        "nonnegative_integer_constants": True,
        "identity_is_basis_subsum": True,
        "tau_pairing": True,
        "transpose_antiautomorphism": True,
        "failures": [],
    }
    ident = j_identity_schur(n, r, length_bound)
    if not (set(ident.terms) == dd and all(c == ONE for c in ident.terms.values())):
        report["identity_is_basis_subsum"] = False
        report["failures"].append("identity is not the sub-sum over distinguished basis elements")
    for A in w.mats:
        ta = j_elt(A)
        if w.mul(ident, ta) != ta or w.mul(ta, ident) != ta:
            report["identity_is_basis_subsum"] = False
            report["failures"].append(f"identity does not fix t_A for A={A.entries}")
    for A in w.mats:
        for B in w.mats:
            gm = w.gamma(A, B)
            for C, g in gm.items():
                if g < 0:
                    report["nonnegative_integer_constants"] = False
                    report["failures"].append(
                        f"gamma({A.entries},{B.entries},{C.entries}) = {g} < 0"
                    )
                if w.gamma(B.transpose(), A.transpose()).get(C.transpose(), 0) != g:
                    report["transpose_antiautomorphism"] = False
                    report["failures"].append(
                        f"transpose map fails on ({A.entries},{B.entries},{C.entries})"
                    )
            tau = sum(g for C, g in gm.items() if w.is_dinv(C))
            expected = 1 if B == A.transpose() else 0
            if tau != expected:
                report["tau_pairing"] = False
                report["failures"].append(
                    f"tau(t_A t_B) = {tau} != {expected} for A={A.entries}, B={B.entries}"
                )
    report["ok"] = not report["failures"]
    return report


class _Tally(contextlib.AbstractContextManager):
    """One Q-property's outcome: statements checked, cases skipped, and the
    counterexamples found.

    A case, ``with tally:``, that the window cannot decide counts as one
    skip: one that reads an uncertified a-value or a product with a term of
    uncertified a-value (UncertifiedAValue), or that needs a witness outside
    the window (WindowExceeded).  A case reads all it needs before it checks
    a statement, so a skipped case has checked none.
    """

    def __init__(self) -> None:
        self.details: dict = {"checked": 0, "skipped": 0}
        self.counterexamples: list[dict] = []

    def __exit__(self, kind, exc, tb) -> bool:
        undecided = isinstance(exc, (UncertifiedAValue, WindowExceeded))
        self.details["skipped"] += undecided
        return undecided

    def expect(self, holds: bool, witness: dict) -> None:
        """Count one statement, and keep its witness as a counterexample if it fails."""
        self.details["checked"] += 1
        if not holds:
            self.counterexamples.append(
                {k: v.to_json() if isinstance(v, PeriodicMatrix) else v for k, v in witness.items()}
            )


def _q1(w: _Window, t: _Tally) -> None:
    """Q1: a(A) <= Delta(sigma(A))."""
    for A in w.mats:
        with t:
            a = w.a(A)
            t.expect(a <= delta_cap(plus_rep(A)), {"A": A, "a": a})


def _q2(w: _Window, t: _Tally) -> None:
    """Q2: gamma_{A,B,D} != 0 with D distinguished forces B = A^t."""
    for A, B in w.pairs:
        with t:
            for D in w.gamma(A, B):
                if w.is_dinv(D):
                    t.expect(B == A.transpose(), {"A": A, "B": B, "D": D})


def _q3(w: _Window, t: _Tally) -> None:
    """Q3: exactly one distinguished D has gamma_{A^t,A,D} != 0."""
    for A in w.certified:
        with t:
            count = len(w.hits(A))
            t.expect(count == 1, {"A": A, "count": count})


def _q4(w: _Window, t: _Tally) -> None:
    """Q4: A <=_LR B implies a(A) >= a(B)."""
    for A, B in w.preorder["LR"]:
        with t:
            t.expect(w.a(A) >= w.a(B), {"A": A, "B": B})


def _q5(w: _Window, t: _Tally) -> None:
    """Q5: gamma_{A^t,A,D} = 1 for the distinguished D of Q3."""
    for A in w.certified:
        with t:
            D, g = w.dinv(A)
            t.expect(g == 1, {"A": A, "D": D, "gamma": g})


def _q6(w: _Window, t: _Tally) -> None:
    """Q6: distinguished matrices are symmetric."""
    for D in w.certified:
        if w.is_dinv(D):
            t.expect(D.transpose() == D, {"D": D})


def _q7(w: _Window, t: _Tally) -> None:
    """Q7: gamma_{A,B,C} = gamma_{B,C^t,A^t} = gamma_{C^t,A,B^t}, over every
    g-support triple of the composable certified pairs."""
    for A, B in w.pairs:
        for C, _g in g_expansion(A, B):
            with t:
                g = [
                    w.gamma(A, B).get(C, 0),
                    w.gamma(B, C.transpose()).get(A.transpose(), 0),
                    w.gamma(C.transpose(), A).get(B.transpose(), 0),
                ]
                t.expect(g[0] == g[1] == g[2], {"A": A, "B": B, "C": C, "g": g})


def _q8(w: _Window, t: _Tally) -> None:
    """Q8: gamma_{A,B,C} != 0 forces A ~L B^t, B ~L C and A ~R C."""
    for A, B in w.pairs:
        with t:
            for C in w.gamma(A, B):
                with t:
                    holds = w.sim_L(A, B.transpose()) and w.sim_L(B, C) and w.sim_R(A, C)
                    t.expect(holds, {"A": A, "B": B, "C": C})


def _q9_q10(w: _Window, t: _Tally, flavor: str) -> None:
    """Q9 (flavor L) and Q10 (flavor R): A <=_flavor B with a(A) = a(B)
    forces A ~flavor B."""
    sim = w.sim_L if flavor == "L" else w.sim_R
    for A, B in w.equal_a[flavor]:
        with t:
            t.expect(sim(A, B), {"A": A, "B": B})


def _q11(w: _Window, t: _Tally) -> None:
    """Q11: A <=_LR B with a(A) = a(B) forces A ~LR B, witnessed by
    t_A t_C t_B != 0 with (ro, co)(C) = (co(A), ro(B)).  A's involutions and
    A^t are the likeliest C, so they go first; with no witness inside the
    window the pair is skipped.  The E in the support of t_A t_C are listed
    once per (A, colour of C), so each pair only reads gamma_{E,B}."""
    reach = Memo(lambda A, color: _q11_reach(w, A, color))
    for A, B in w.equal_a["LR"]:
        with t:
            middle, undecided = reach[A, (A.co, B.ro)]
            if not any(w.gamma(E, B) for E in middle):
                if undecided:
                    raise undecided.with_traceback(None)
                raise WindowExceeded(f"no witness for A={A.entries} ~LR B={B.entries}")
            t.expect(True, {"A": A, "B": B})


def _q11_reach(w: _Window, A: PeriodicMatrix, color: tuple) -> tuple[list, Exception | None]:
    """The E with gamma_{A,C,E} != 0 over the C of the given colour, A's
    involutions and A^t first, each E once in first-seen order; cut at the
    first gamma_{A,C} (or hits(A)) the window cannot decide, and that error.

    A pair (A, B) with no witness among the listed E meets the same error at
    the same place as a walk over the C in this order would, so it is skipped
    the same way."""
    middle: dict[PeriodicMatrix, None] = {}
    try:
        candidates = [D for D, _g in w.hits(A)] + [A.transpose()] + w.by_color.get(color, [])
        for C in candidates:
            if (C.ro, C.co) == color:
                middle.update(dict.fromkeys(w.gamma(A, C)))
    except (UncertifiedAValue, WindowExceeded) as exc:
        return list(middle), exc
    return list(middle), None


def _q13(w: _Window, t: _Tally) -> None:
    """Q13: each left cell holds exactly one distinguished D, and
    gamma_{A^t,A,D} != 0 for every A in it.  The cells are the exact ~L
    classes of the certified matrices; a cell whose involution lies outside
    the window is skipped."""
    with t:
        classes = _left_cells(w.certified, lambda A, B: A.co == B.co and w.sim_L(A, B))
        for cls in classes:
            with t:
                ds = [A for A in cls if w.is_dinv(A)]
                if not ds:
                    raise WindowExceeded(f"no involution for the cell of {cls[0].entries}")
                missing = [A for A in cls if w.gamma(A.transpose(), A).get(ds[0], 0) == 0]
                t.expect(len(ds) == 1 and not missing, {
                    "cell": [A.to_json() for A in cls],
                    "distinguished": [D.to_json() for D in ds],
                    "missing": [A.to_json() for A in missing],
                })


def _q14(w: _Window, t: _Tally) -> None:
    """Q14: A ~LR A^t, witnessed through the distinguished involution D of A:
    t_A t_D t_{A^t} != 0."""
    for A in w.certified:
        with t:
            D, _g = w.dinv(A)
            product = w.mul(w.mul(j_elt(A), j_elt(D)), j_elt(A.transpose()))
            t.expect(not product.is_zero(), {"A": A})


# Q15 runs on the matrices whose sigma has at most this length.
_Q15_SUB_LENGTH = 2


def _bivariate(pairs) -> dict[tuple[int, int], int]:
    """sum p(v') q(v) over (p, q) pairs, as a table {(e', e): coefficient}."""
    acc: dict[tuple[int, int], int] = {}
    for primed, plain in pairs:
        for e1, c1 in primed.items():
            for e2, c2 in plain.items():
                acc[e1, e2] = acc.get((e1, e2), 0) + c1 * c2
    return {k: c for k, c in acc.items() if c}


def _q15_identity_holds(
    A: PeriodicMatrix, Ap: PeriodicMatrix, B: PeriodicMatrix, C: PeriodicMatrix
) -> bool:
    """The two-indeterminate commutation identity, compared exactly:
    sum_B' g_{C,A',B'}(v') g_{A,B',B}(v) = sum_B' g_{B',A',B}(v') g_{A,C,B'}(v)."""
    lhs = _bivariate((g1, g_struct(A, Bp, B)) for Bp, g1 in g_expansion(C, Ap))
    rhs = _bivariate((g_struct(Bp, Ap, B), g1) for Bp, g1 in g_expansion(A, C))
    return lhs == rhs


def _q15_tuples(w: _Window, on_hypothesis: bool):
    """(A, A', B, C) in sub order, with co(C) = ro(A'), co(A) = ro(C),
    (ro, co)(B) = (ro(A), co(A')), and a(B) = a(C) iff on_hypothesis."""
    sub, by_ro, by_co, by_color = w.q15_sub
    for C in sub:
        a_C = w.aval[C].value
        for Ap in by_ro.get(C.co, ()):
            for A in by_co.get(C.ro, ()):
                for B, a_B in by_color.get((A.ro, Ap.co), ()):
                    if (a_B == a_C) == on_hypothesis:
                        yield A, Ap, B, C


def _q15_count(w: _Window) -> int:
    """The number of on-hypothesis tuples that _q15_tuples yields, summed over
    classes: C by (ro, co, a), the A under ro(C) by ro, the A' under co(C) by
    co, and B by ((ro, co), a)."""
    sub, by_ro, by_co, by_color = w.q15_sub
    a_count = {color: collections.Counter(a for _, a in Bs) for color, Bs in by_color.items()}
    ro_count = {mu: collections.Counter(A.ro for A in As) for mu, As in by_co.items()}
    co_count = {mu: collections.Counter(Ap.co for Ap in Aps) for mu, Aps in by_ro.items()}
    classes = collections.Counter((C.ro, C.co, w.aval[C].value) for C in sub)
    return sum(
        n * m * k * a_count.get((lam, nu), {}).get(a, 0)
        for (ro, co, a), n in classes.items()
        for lam, m in ro_count.get(ro, {}).items()
        for nu, k in co_count.get(co, {}).items()
    )


def _q15(w: _Window, t: _Tally) -> None:
    """Q15: the two-indeterminate commutation identity, on the first q15_cap
    on-hypothesis tuples.  Off-hypothesis tuples (a(B) != a(C)) are tried
    too, for information only."""
    for A, Ap, B, C in itertools.islice(_q15_tuples(w, True), w.q15_cap):
        t.expect(_q15_identity_holds(A, Ap, B, C), {"A": A, "A'": Ap, "B": B, "C": C})
    t.details["tuples_enumerated"] = _q15_count(w)
    off_cap = max(w.q15_cap // 10, 20)
    off = [_q15_identity_holds(*q) for q in itertools.islice(_q15_tuples(w, False), off_cap)]
    t.details["without_hypothesis"] = {"held": off.count(True), "failed": off.count(False)}


# The Q-properties: each checks the window into a fresh tally, which then
# holds the property's details entry and counterexamples.  Q12 does not
# exist in the numbering.
_PROPERTIES = {
    "Q1": _q1, "Q2": _q2, "Q3": _q3, "Q4": _q4, "Q5": _q5, "Q6": _q6, "Q7": _q7, "Q8": _q8,
    "Q9": functools.partial(_q9_q10, flavor="L"), "Q10": functools.partial(_q9_q10, flavor="R"),
    "Q11": _q11, "Q13": _q13, "Q14": _q14, "Q15": _q15,
}


def q_suite(
    n: int,
    r: int,
    length_bound: int,
    omega_window: tuple[int, int] | None = None,
    q15_cap: int = 600,
) -> dict:
    """Run the Q1-Q15 property suite on a certified window.

    Every check is restricted to certified data; anything the window cannot
    decide is reported as skipped, never as a pass.  Q12 does not exist in
    the numbering and is reported as such.
    """
    w = _Window(n, r, length_bound, omega_window, q15_cap)
    details: dict[str, object] = {
        "window_size": len(w.mats),
        "uncertified": len(w.mats) - len(w.certified),
    }
    results = {"Q12": "absent-in-paper"}
    counterexamples: dict[str, list] = {}
    for q, prop in _PROPERTIES.items():
        t = _Tally()
        prop(w, t)
        details[q] = t.details
        if t.counterexamples:
            counterexamples[q] = t.counterexamples
        results[q] = "fail" if t.counterexamples else "pass" if t.details["checked"] else "skipped"
    ordered = {f"Q{i}": results[f"Q{i}"] for i in range(1, 16)}
    return {
        "n": n,
        "r": r,
        "length_bound": length_bound,
        "omega_window": list(omega_window or (-r, r)),
        "results": ordered,
        "details": details,
        "counterexamples": counterexamples,
        "failures": sorted(counterexamples),
        "ok": not counterexamples,
    }
