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
import itertools
from dataclasses import dataclass, field
from typing import Mapping

from .affperm import AffPerm, ball, identity, rho_conjugate
from .errors import (
    BasisMismatch,
    PeriodMismatch,
    UncertifiedAValue,
    UncertifiedBoundary,
    WindowExceeded,
)
from .hecke import h_expansion, kl_poly
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
from .schur import g_expansion, g_struct, max_rep_terms

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
    "hecke_sim_L",
    "schur_sim_L",
    "schur_sim_R",
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


_A_CACHE: dict[tuple[AffPerm, int], AValue] = {}
_CERTIFIED: dict[tuple[AffPerm, int], AValue] = {}


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


_SCANS: dict[tuple[int, int], _Scan] = {}


def a_bounded(z: AffPerm, length_bound: int) -> AValue:
    """Scan deg h_{x,y,z} over the W' ball of the given radius (rho-reduced).

    Translates fold away on both sides, so the scan ranges over W' pairs and
    the r cyclic conjugates of z.  Certification happens exactly when the
    scanned maximum reaches min(nu, Delta(z)); the witness is the first pair,
    x before y in ball order, attaining it.  All queries at one (r, radius)
    share one resumable scan, so each product is read once.
    """
    _, zf = z.omega_split()
    key = (zf, length_bound)
    hit = _A_CACHE.get(key)
    if hit is not None:
        return hit
    r = z.r
    cap = min(nu(r), delta_cap(zf))
    conjugates = {rho_conjugate(zf, b) for b in range(r)}
    scan = _SCANS.get((r, length_bound))
    if scan is None:
        scan = _SCANS[r, length_bound] = _Scan(r, length_bound)
    # h_{e,z,z} = 1 always contributes degree 0
    while True:
        top = scan.top(conjugates)
        best = top[0] if top is not None and top[0] > 0 else 0
        if best >= cap or not scan.step():
            break
    witness = (top[2], top[3]) if best else (identity(r), zf)
    out = AValue(best, best == cap, witness, cap, length_bound)
    _A_CACHE[key] = out
    return out


def certified_a(z: AffPerm, length_bound: int) -> AValue:
    """a_bounded with an adaptively widened scan radius until certification.

    The witness pairs needed for long elements live just past half their
    length, so the radius grows to that point and no further.
    """
    _, zf = z.omega_split()
    key = (zf, length_bound)
    av = _CERTIFIED.get(key)
    if av is not None:
        return av
    max_radius = max(length_bound, (zf.length + 3) // 2 + 1)
    radius = length_bound
    av = a_bounded(zf, radius)
    while not av.certified and radius < max_radius:
        radius += 1
        av = a_bounded(zf, radius)
    _CERTIFIED[key] = av
    return av


# ---------------------------------------------------------------------------
# gamma-coefficients


def gamma(x: AffPerm, y: AffPerm, z: AffPerm, length_bound: int = 4) -> int:
    """The coefficient of t^{a(z)} in h_{x,y,z}; requires a certified a(z)."""
    av = certified_a(z, length_bound)
    if not av.certified:
        raise UncertifiedAValue(f"a({z}) not certified at radius {av.scan_radius}")
    h = h_expansion(x, y).get(z, ZERO)
    return h.coeff(av.value)


def gamma_expansion(
    x: AffPerm, y: AffPerm, length_bound: int = 4
) -> dict[AffPerm, int]:
    """All nonzero gamma_{x,y,z}: the J-ring product t_x t_y."""
    out: dict[AffPerm, int] = {}
    for z, h in h_expansion(x, y).items():
        av = certified_a(z, length_bound)
        if not av.certified:
            raise WindowExceeded(
                f"product term {z} has uncertified a-value at radius {av.scan_radius}"
            )
        g = h.coeff(av.value)
        if g:
            out[z] = g
    return out


def gamma_mat(
    A: PeriodicMatrix, B: PeriodicMatrix, C: PeriodicMatrix, length_bound: int = 4
) -> int:
    """gamma_{A,B,C}: the Hecke gamma of the sigma's when g_{A,B,C} is nonzero."""
    for C2, g in g_expansion(A, B):
        if C2 == C and not g.is_zero():
            return gamma(plus_rep(A), plus_rep(B), plus_rep(C), length_bound)
    return 0


def gamma_mat_expansion(
    A: PeriodicMatrix, B: PeriodicMatrix, length_bound: int = 4
) -> dict[PeriodicMatrix, int]:
    """All nonzero gamma_{A,B,C}: the J_Schur product t_A t_B.

    gamma_{A,B,C} is the Hecke gamma of the longest representatives, so one
    read of C_{w_A^+} C_{w_B^+} serves every C.
    """
    out: dict[PeriodicMatrix, int] = {}
    for C, z, h in max_rep_terms(A, B):
        av = certified_a(z, length_bound)
        if not av.certified:
            raise UncertifiedAValue(f"a({z}) not certified at radius {av.scan_radius}")
        g = h.coeff(av.value)
        if g:
            out[C] = g
    return out


# ---------------------------------------------------------------------------
# Distinguished involutions


def is_distinguished(z: AffPerm, length_bound: int = 4) -> bool:
    """True iff z is an involution with certified a(z) = Delta(z)."""
    if z.omega_degree != 0:
        return False
    if not (z * z).is_identity():
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
        if A.ro != A.co:
            continue
        if is_distinguished(plus_rep(A), length_bound):
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


@dataclass(frozen=True, eq=False)
class JElt(Combination):
    """An element of an asymptotic ring, over W (ring="J_W") or matrices
    (ring="J_Schur").

    Based-ring elements carry constant (integer) coefficients; the images of
    the Lusztig homomorphisms extend scalars to Laurent polynomials.
    """

    ring: str
    r: int
    n: int = 0
    terms: Mapping[object, LaurentPoly] = field(default_factory=dict)

    def _validate(self) -> None:
        if self.ring not in ("J_W", "J_Schur"):
            raise BasisMismatch(f"unknown asymptotic ring tag {self.ring!r}")

    def _check_compatible(self, other: "JElt") -> None:
        if (self.ring, self.r, self.n) != (other.ring, other.r, other.n):
            raise PeriodMismatch("asymptotic ring mismatch")

    @staticmethod
    def _key_json(k) -> dict:
        if isinstance(k, AffPerm):
            return {"window": list(k.window)}
        return {"matrix": [list(e) for e in k.entries]}

    @staticmethod
    def from_json(obj: dict) -> "JElt":
        """Parse to_json output; a coefficient may also be an integer string,
        and a missing one means 1."""
        terms = {}
        for t in obj["terms"]:
            if "window" in t:
                key = AffPerm(obj["r"], tuple(t["window"]))
            else:
                key = PeriodicMatrix(obj["n"], tuple(tuple(e) for e in t["matrix"]))
            coeff = t.get("coeff", "1")
            if isinstance(coeff, str):
                terms[key] = LaurentPoly(int(coeff))
            else:
                terms[key] = LaurentPoly.from_json(coeff)
        return JElt(obj["ring"], obj["r"], obj.get("n", 0), terms)


def j_elt(key, ring: str | None = None, coeff: "LaurentPoly | int" = 1) -> JElt:
    """The basis element t_key of the appropriate asymptotic ring."""
    if isinstance(coeff, int):
        coeff = LaurentPoly(coeff)
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


def lusztig_phi_hecke(w: AffPerm, length_bound: int) -> JElt:
    """phi(C_w) = sum over u and distinguished d with a(d) = a(u) of h_{w,d,u} t_u."""
    acc: dict[object, LaurentPoly] = {}
    for d in distinguished_involutions(w.r, length_bound):
        ad = certified_a(d, length_bound)
        for u, h in h_expansion(w, d).items():
            au = certified_a(u, length_bound)
            if not au.certified:
                raise WindowExceeded(f"a({u}) uncertified in phi(C_w) truncation")
            if au.value == ad.value:
                acc[u] = acc.get(u, ZERO) + h
    return JElt("J_W", w.r, 0, acc)


def lusztig_phi_hecke_elt(a, length_bound: int) -> JElt:
    """A-linear extension of lusztig_phi_hecke to C-basis Hecke elements."""
    terms = linear(a.terms, lambda w: lusztig_phi_hecke(w, length_bound).terms.items())
    return JElt("J_W", a.r, 0, terms)


def lusztig_phi_schur(A: PeriodicMatrix, length_bound: int) -> JElt:
    """Phi(theta_A) = sum over B and distinguished D colored co(A) with
    a(D) = a(B) of g_{A,D,B} t_B."""
    mu = A.co
    acc: dict[object, LaurentPoly] = {}
    for D in dinv_schur_colored(A.n, A.r, mu, length_bound):
        aD = certified_a(plus_rep(D), length_bound)
        for B, g in g_expansion(A, D):
            aB = certified_a(plus_rep(B), length_bound)
            if not aB.certified:
                raise WindowExceeded(f"a({B}) uncertified in Phi truncation")
            if aB.value == aD.value:
                acc[B] = acc.get(B, ZERO) + g
    return JElt("J_Schur", A.r, A.n, acc)


def lusztig_phi_schur_elt(a, length_bound: int) -> JElt:
    """A-linear extension of lusztig_phi_schur to theta-basis elements."""
    terms = linear(a.terms, lambda A: lusztig_phi_schur(A, length_bound).terms.items())
    return JElt("J_Schur", a.r, a.n, terms)


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


def _transitive_closure(n: int, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    succ = {i: set() for i in range(n)}
    for a, b in edges:
        succ[a].add(b)
    closed = set()
    for start in range(n):
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in succ[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closed.update((start, t) for t in seen)
    return closed


def _scc_partition(n: int, relation: set[tuple[int, int]]) -> list[list[int]]:
    # relation is a reflexive-transitive closure: group by mutual reachability
    classes = {
        tuple(j for j in range(n) if (i, j) in relation and (j, i) in relation)
        for i in range(n)
    }
    return sorted(map(list, classes))


def hecke_sim_L(x: AffPerm, y: AffPerm, length_bound: int = 4) -> bool:
    """x ~L y in W, by the exact criterion t_x t_{y^{-1}} != 0."""
    return bool(gamma_expansion(x, y.inverse, length_bound))


def schur_sim_L(A: PeriodicMatrix, B: PeriodicMatrix, length_bound: int = 4) -> bool:
    """A ~L B, by the exact criterion t_A t_{B^t} != 0."""
    return bool(gamma_mat_expansion(A, B.transpose(), length_bound))


def schur_sim_R(A: PeriodicMatrix, B: PeriodicMatrix, length_bound: int = 4) -> bool:
    """A ~R B, i.e. A^t ~L B^t."""
    return bool(gamma_mat_expansion(A.transpose(), B, length_bound))


def cell_preorder(elements, flavor: str = "L") -> CellReport:
    """Window-bounded cell preorder over Hecke elements or matrices.

    One-step relations come from products with left (and, for LR, right)
    factors inside the window, then the reflexive-transitive closure is taken
    and its strongly-connected components reported as cells.  Because the
    quantified factor ranges only over the window, missing edges (never wrong
    edges) are possible; the caveats say so.
    """
    elements = sorted(set(elements), key=lambda k: k.sort_key)
    index = {k: i for i, k in enumerate(elements)}
    n = len(elements)
    is_hecke = bool(elements) and isinstance(elements[0], AffPerm)

    def left_edges(items) -> set[tuple[int, int]]:
        edges = set()
        for b in items:
            for c in items:
                if is_hecke:
                    support = h_expansion(c, b).keys()
                elif c.co != b.ro:
                    continue  # theta_c theta_b = 0
                else:
                    support = (C for C, _ in g_expansion(c, b))
                for a in support:
                    ia = index.get(a)
                    if ia is not None:
                        edges.add((ia, index[b]))
        return edges

    if flavor == "L":
        edges = left_edges(elements)
    elif flavor == "R":
        flip = (lambda w: w.inverse) if is_hecke else (lambda A: A.transpose())
        rep = cell_preorder([flip(k) for k in elements], "L")
        edges = {
            (index[flip(rep.elements[a])], index[flip(rep.elements[b])])
            for a, b in rep.edges
        }
    elif flavor == "LR":
        left = cell_preorder(elements, "L").edges
        right = cell_preorder(elements, "R").edges
        edges = set(left) | set(right)
    else:
        raise BasisMismatch(f"unknown cell flavor {flavor!r}")

    closure = _transitive_closure(n, set(edges))
    cells = _scc_partition(n, closure)
    return CellReport(
        flavor=flavor,
        window=f"{n} elements",
        elements=list(elements),
        edges=sorted(edges),
        cells=cells,
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
    members = sorted(members, key=lambda A: A.sort_key)
    index = {A: i for i, A in enumerate(members)}

    # partition the sigma values by Hecke ~L (exact criterion)
    sigmas = sorted({plus_rep(A) for A in members}, key=lambda w: w.sort_key)
    sig_class: dict[AffPerm, int] = {}
    reps: list[AffPerm] = []
    for s in sigmas:
        for ci, rep in enumerate(reps):
            if hecke_sim_L(s, rep, length_bound):
                sig_class[s] = ci
                break
        else:
            sig_class[s] = len(reps)
            reps.append(s)

    groups: dict[tuple, list[int]] = {}
    for A in members:
        key = (A.co.parts, sig_class[plus_rep(A)])
        groups.setdefault(key, []).append(index[A])
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
    a-values, an index by (ro, co), and a memo under which each pair (A, B)
    reaches gamma_mat_expansion at most once; the memo lives only as long as
    the object.
    """

    def __init__(self, n, r, length_bound, omega_window) -> None:
        win = enumerate_theta(n, r, length_bound, omega_window)
        closed = set(win) | {A.transpose() for A in win}
        self.mats = tuple(sorted(closed, key=lambda A: A.sort_key))
        self.length_bound = length_bound
        self.aval = {A: certified_a(plus_rep(A), length_bound) for A in self.mats}
        self.certified = [A for A in self.mats if self.aval[A].certified]
        self.by_color: dict[tuple, list[PeriodicMatrix]] = {}
        for A in self.mats:
            self.by_color.setdefault((A.ro, A.co), []).append(A)
        self._gamma: dict[tuple, dict[PeriodicMatrix, int]] = {}

    def gamma(self, A: PeriodicMatrix, B: PeriodicMatrix) -> dict[PeriodicMatrix, int]:
        """All nonzero gamma_{A,B,C}, as gamma_mat_expansion(A, B)."""
        gm = self._gamma.get((A, B))
        if gm is None:
            gm = self._gamma[A, B] = gamma_mat_expansion(A, B, self.length_bound)
        return gm

    def mul(self, a: JElt, b: JElt) -> JElt:
        return _j_product(a, b, self.gamma)

    def sim_L(self, A: PeriodicMatrix, B: PeriodicMatrix) -> bool:
        return bool(self.gamma(A, B.transpose()))

    def sim_R(self, A: PeriodicMatrix, B: PeriodicMatrix) -> bool:
        return bool(self.gamma(A.transpose(), B))

    def is_dinv(self, A: PeriodicMatrix) -> bool:
        return A.ro == A.co and is_distinguished(plus_rep(A), self.length_bound)


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
    w = _Window(n, r, length_bound, omega_window)
    win, aval, certified = w.mats, w.aval, w.certified
    results: dict[str, str] = {}
    details: dict[str, object] = {
        "window_size": len(win),
        "uncertified": len(win) - len(certified),
    }
    counterexamples: dict[str, list] = {}

    def fail(q: str, payload) -> None:
        results[q] = "fail"
        counterexamples.setdefault(q, []).append(payload)

    def finish(q: str, checked: int, skipped: int = 0) -> None:
        if results.get(q) != "fail":
            results[q] = "pass" if checked else "skipped"
        details[q] = {"checked": checked, "skipped": skipped}

    # gamma expansions for all composable certified pairs (None: undecidable)
    gam: dict[tuple, dict[PeriodicMatrix, int] | None] = {}
    for A in certified:
        for B in certified:
            if A.co == B.ro:
                try:
                    gam[(A, B)] = w.gamma(A, B)
                except (UncertifiedAValue, WindowExceeded):
                    gam[(A, B)] = None

    # Q1: a(A) <= Delta(sigma(A))
    for A in certified:
        if aval[A].value > delta_cap(plus_rep(A)):
            fail("Q1", {"A": A.to_json(), "a": aval[A].value})
    finish("Q1", len(certified), len(win) - len(certified))

    # Q2: gamma_{A,B,D} != 0 with D distinguished forces B = A^t
    checked = skipped = 0
    for (A, B), gm in gam.items():
        if gm is None:
            skipped += 1
            continue
        for D in gm:
            if w.is_dinv(D):
                checked += 1
                if B != A.transpose():
                    fail("Q2", {"A": A.to_json(), "B": B.to_json(), "D": D.to_json()})
    finish("Q2", checked, skipped)

    # Q3 and Q5: unique distinguished D with gamma_{A^t,A,D} != 0, and it is 1
    dinv_of: dict[PeriodicMatrix, PeriodicMatrix] = {}
    for A in certified:
        hits = [(D, g) for D, g in w.gamma(A.transpose(), A).items() if w.is_dinv(D)]
        if len(hits) != 1:
            fail("Q3", {"A": A.to_json(), "count": len(hits)})
            continue
        D, g = hits[0]
        dinv_of[A] = D
        if g != 1:
            fail("Q5", {"A": A.to_json(), "D": D.to_json(), "gamma": g})
    finish("Q3", len(certified))
    finish("Q5", len(certified))

    # Q6: distinguished matrices are symmetric
    dd = [A for A in certified if w.is_dinv(A)]
    for D in dd:
        if D.transpose() != D:
            fail("Q6", {"D": D.to_json()})
    finish("Q6", len(dd))

    # preorders from the sound one-step edges of in-window products; the
    # window is transpose-closed, so R-edges are the transposed L-edges
    index = {A: i for i, A in enumerate(win)}
    edges_L = set(cell_preorder(win, "L").edges)
    edges_R = {(index[win[a].transpose()], index[win[b].transpose()]) for a, b in edges_L}
    rel_L = _transitive_closure(len(win), edges_L)
    rel_R = _transitive_closure(len(win), edges_R)
    rel_LR = _transitive_closure(len(win), edges_L | edges_R)

    # Q4: A <=_LR B implies a(A) >= a(B)
    checked = skipped = 0
    for ia, ib in rel_LR:
        A, B = win[ia], win[ib]
        if not (aval[A].certified and aval[B].certified):
            skipped += 1
            continue
        checked += 1
        if aval[A].value < aval[B].value:
            fail("Q4", {"A": A.to_json(), "B": B.to_json()})
    finish("Q4", checked, skipped)

    # Q7: cyclic symmetry of gamma, over every g-support triple of the window
    checked = 0
    for (A, B), gm in gam.items():
        if gm is None:
            continue
        for C, _g in g_expansion(A, B):
            g1 = gm.get(C, 0)
            g2 = w.gamma(B, C.transpose()).get(A.transpose(), 0)
            g3 = w.gamma(C.transpose(), A).get(B.transpose(), 0)
            checked += 1
            if not (g1 == g2 == g3):
                fail(
                    "Q7",
                    {"A": A.to_json(), "B": B.to_json(), "C": C.to_json(), "g": [g1, g2, g3]},
                )
    finish("Q7", checked)

    # Q8: gamma != 0 forces the three cell relations
    checked = 0
    for (A, B), gm in gam.items():
        for C in gm or ():
            checked += 1
            if not (w.sim_L(A, B.transpose()) and w.sim_L(B, C) and w.sim_R(A, C)):
                fail("Q8", {"A": A.to_json(), "B": B.to_json(), "C": C.to_json()})
    finish("Q8", checked)

    def equal_a(rel):
        """The pairs A != B of a preorder with certified a(A) = a(B)."""
        for ia, ib in rel:
            A, B = win[ia], win[ib]
            if ia != ib and aval[A].certified and aval[B].certified:
                if aval[A].value == aval[B].value:
                    yield A, B

    # Q9/Q10: preorder plus equal a forces equivalence
    for q, rel, sim in (("Q9", rel_L, w.sim_L), ("Q10", rel_R, w.sim_R)):
        checked = 0
        for A, B in equal_a(rel):
            checked += 1
            if not sim(A, B):
                fail(q, {"A": A.to_json(), "B": B.to_json()})
        finish(q, checked)

    # Q11: ... and for ~LR a witness t_A t_C t_B != 0 with (ro, co)(C) =
    # (co(A), ro(B)); A's involution and A^t are the likeliest, so go first
    checked = skipped = 0
    for A, B in equal_a(rel_LR):
        checked += 1
        candidates = [dinv_of.get(A), A.transpose()] + w.by_color.get((A.co, B.ro), [])
        middle = (C for C in candidates if C is not None and (C.ro, C.co) == (A.co, B.ro))
        if not any(any(w.gamma(E, B) for E in w.gamma(A, C)) for C in middle):
            skipped += 1  # no witness inside the window; not decidable here
    finish("Q11", checked - skipped, skipped)

    # Q13: each left cell (exact ~L classes in the window) has a unique D
    classes: list[list[PeriodicMatrix]] = []
    for A in certified:
        for cls in classes:
            if A.co == cls[0].co and w.sim_L(A, cls[0]):
                cls.append(A)
                break
        else:
            classes.append([A])
    checked = skipped = 0
    for cls in classes:
        ds = [A for A in cls if w.is_dinv(A)]
        if len(ds) > 1:
            fail("Q13", {"cell": [A.to_json() for A in cls], "count": len(ds)})
        elif len(ds) == 0:
            skipped += 1  # the cell's involution lies outside the window
        else:
            checked += 1
            D = ds[0]
            for A in cls:
                if w.gamma(A.transpose(), A).get(D, 0) == 0:
                    fail("Q13", {"A": A.to_json(), "D": D.to_json()})
    finish("Q13", checked, skipped)

    # Q14: A ~LR A^t, witnessed through the distinguished involution of A
    checked = skipped = 0
    for A in certified:
        D = dinv_of.get(A)
        if D is None:
            skipped += 1
            continue
        checked += 1
        if w.mul(w.mul(j_elt(A), j_elt(D)), j_elt(A.transpose())).is_zero():
            fail("Q14", {"A": A.to_json()})
    finish("Q14", checked, skipped)

    # Q15: the two-indeterminate commutation identity, on a capped tuple set
    # enumerated lazily; off-hypothesis tuples (a(B) != a(C)) are tried too,
    # for information only
    sub = [A for A in certified if plus_rep(A).length <= _Q15_SUB_LENGTH]
    by_ro: dict[Composition, list[PeriodicMatrix]] = {}
    by_co: dict[Composition, list[PeriodicMatrix]] = {}
    by_color: dict[tuple, list[tuple[PeriodicMatrix, int]]] = {}
    for B in sub:
        by_ro.setdefault(B.ro, []).append(B)
        by_co.setdefault(B.co, []).append(B)
        by_color.setdefault((B.ro, B.co), []).append((B, aval[B].value))
    a_count = {color: collections.Counter(a for _, a in Bs) for color, Bs in by_color.items()}

    def tuples(on_hypothesis: bool):
        """(A, A', B, C) in sub order, with co(C) = ro(A'), co(A) = ro(C),
        (ro, co)(B) = (ro(A), co(A')), and a(B) = a(C) iff on_hypothesis."""
        for C in sub:
            a_C = aval[C].value
            for Ap in by_ro.get(C.co, ()):
                for A in by_co.get(C.ro, ()):
                    for B, a_B in by_color.get((A.ro, Ap.co), ()):
                        if (a_B == a_C) == on_hypothesis:
                            yield A, Ap, B, C

    checked = 0
    for A, Ap, B, C in itertools.islice(tuples(True), q15_cap):
        checked += 1
        if not _q15_identity_holds(A, Ap, B, C):
            fail(
                "Q15",
                {"A": A.to_json(), "A'": Ap.to_json(), "B": B.to_json(), "C": C.to_json()},
            )
    finish("Q15", checked)
    off_cap = max(q15_cap // 10, 20)
    off = [_q15_identity_holds(*t) for t in itertools.islice(tuples(False), off_cap)]
    details["Q15"] = {
        "checked": checked,
        "skipped": 0,
        "tuples_enumerated": sum(
            a_count.get((A.ro, Ap.co), {}).get(aval[C].value, 0)
            for C in sub
            for Ap in by_ro.get(C.co, ())
            for A in by_co.get(C.ro, ())
        ),
        "without_hypothesis": {"held": off.count(True), "failed": off.count(False)},
    }

    results["Q12"] = "absent-in-paper"
    ordered = {f"Q{i}": results.get(f"Q{i}", "skipped") for i in range(1, 16)}
    out = {
        "n": n,
        "r": r,
        "length_bound": length_bound,
        "omega_window": list(omega_window or (-r, r)),
        "results": ordered,
        "details": details,
        "counterexamples": counterexamples,
        "failures": sorted(q for q, s in ordered.items() if s == "fail"),
    }
    out["ok"] = not out["failures"]
    return out
