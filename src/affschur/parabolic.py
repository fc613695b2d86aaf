"""Compositions, Young subgroups, double cosets, and periodic matrices.

A composition lambda of r into n parts cuts [1, r] into consecutive blocks
and (periodically) cuts all of Z into blocks R_j, j in Z.  The standard basis
of the affine q-Schur algebra is indexed by the periodic n-strip matrices
A = (|R_k ^ w R_l|) of the double cosets W_lambda w W_mu, lambda = ro(A) and
mu = co(A).  `matrix_of` and `min_rep` are the two directions of that
bijection; `plus_rep`, `double_coset` and the dimension statistic d_A all take
the matrix, and `coset_of` lists a coset from any (lambda, w, mu).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import affperm
from .affperm import AffPerm
from .errors import InvalidMatrix, PeriodMismatch
from .interned import Interned

__all__ = [
    "Composition",
    "PeriodicMatrix",
    "compositions",
    "young_elements",
    "longest_in_parabolic",
    "is_min_double_rep",
    "is_max_double_rep",
    "min_double_rep",
    "coset_of",
    "double_coset",
    "plus_rep",
    "matrix_of",
    "min_rep",
    "d_A_combinatorial",
    "d_A_coxeter",
    "enumerate_theta",
]


@dataclass(frozen=True, eq=False, init=False)
class Composition(Interned):
    """A periodic composition of r into n nonnegative parts, one object per value."""

    n: int
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if type(self.n) is not int or any(type(p) is not int for p in self.parts):
            raise TypeError(f"composition size and parts must be integers: {self.n}, {self.parts}")
        if self.n < 1 or len(self.parts) != self.n:
            raise InvalidMatrix(f"composition needs exactly n={self.n} parts")
        if any(p < 0 for p in self.parts):
            raise InvalidMatrix("composition parts must be nonnegative")
        if sum(self.parts) < 1:
            raise InvalidMatrix("empty compositions (r = 0) are rejected")

    @functools.cached_property
    def r(self) -> int:
        return sum(self.parts)

    @functools.cached_property
    def cuts(self) -> tuple[int, ...]:
        """Partial sums (0, p1, p1+p2, ..., r)."""
        out = [0]
        for p in self.parts:
            out.append(out[-1] + p)
        return tuple(out)

    @functools.cached_property
    def gens(self) -> frozenset[int]:
        """The generator subset I(lambda) of {s_1, ..., s_{r-1}}."""
        boundaries = set(self.cuts)
        return frozenset(i for i in range(1, self.r) if i not in boundaries)

    def block_of(self, p: int) -> int:
        """The index j in Z of the block R_j containing the integer p."""
        r = self.r
        k = (p - 1) // r
        p0 = p - k * r
        i = 1
        while self.cuts[i] < p0:
            i += 1
        return i + k * self.n

    def block_start(self, j: int) -> int:
        """The first integer of block R_j (meaningful only when the block is nonempty)."""
        i = (j - 1) % self.n + 1
        k = (j - i) // self.n
        return k * self.r + self.cuts[i - 1] + 1

    def block_size(self, j: int) -> int:
        i = (j - 1) % self.n + 1
        return self.parts[i - 1]

    def to_json(self) -> dict:
        return {"n": self.n, "parts": list(self.parts)}

    @staticmethod
    def from_json(obj: dict) -> "Composition":
        return Composition(obj["n"], tuple(obj["parts"]))


def compositions(n: int, r: int) -> tuple[Composition, ...]:
    """All compositions of r into n nonnegative parts, lexicographically.

    Stars and bars: the n - 1 bars sit at increasing positions among r + n - 1
    slots, and combinations come in lexicographic order of the bar positions,
    which is the lexicographic order of the parts.
    """
    if n < 1:
        raise InvalidMatrix(f"compositions need n >= 1 parts, got n={n}")
    out = []
    for bars in itertools.combinations(range(r + n - 1), n - 1):
        cuts = (-1, *bars, r + n - 1)
        out.append(Composition(n, tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def young_elements(lam: Composition) -> frozenset[AffPerm]:
    """All elements of the Young subgroup W_lambda, embedded in W'."""
    r = lam.r
    blocks = [
        list(range(lam.cuts[i] + 1, lam.cuts[i + 1] + 1))
        for i in range(lam.n)
        if lam.parts[i] > 0
    ]
    out = set()
    for perm_choice in itertools.product(
        *(itertools.permutations(b) for b in blocks)
    ):
        win = list(range(1, r + 1))
        for block, images in zip(blocks, perm_choice):
            for pos, img in zip(block, images):
                win[pos - 1] = img
        out.add(AffPerm(r, tuple(win)))
    return frozenset(out)


def longest_in_parabolic(lam: Composition) -> AffPerm:
    """The longest element w_{0,lambda}: reverses every block."""
    r = lam.r
    win = list(range(1, r + 1))
    for i in range(lam.n):
        lo, hi = lam.cuts[i] + 1, lam.cuts[i + 1]
        for off, pos in enumerate(range(lo, hi + 1)):
            win[pos - 1] = hi - off
    return AffPerm(r, tuple(win))


def is_min_double_rep(w: AffPerm, lam: Composition, mu: Composition) -> bool:
    """True iff w is shortest in W_lambda w W_mu (no I(lam) left / I(mu) right descent)."""
    return not (lam.gens & w.left_descents) and not (mu.gens & w.right_descents)


def is_max_double_rep(w: AffPerm, lam: Composition, mu: Composition) -> bool:
    """True iff w is longest in W_lambda w W_mu (all of I(lam) left / I(mu) right descents)."""
    return lam.gens <= w.left_descents and mu.gens <= w.right_descents


def _walk(w: AffPerm, lam: Composition, mu: Composition, up: bool) -> AffPerm:
    """Greedy walk to one end of W_lambda w W_mu.

    Each step multiplies by s in I(lam) on the left or I(mu) on the right and
    changes the length by one: down while a descent is left, up while an ascent
    is left.  The coset is finite and its only element without descents
    (ascents) is the shortest (longest) one, so that is where the walk stops.
    """
    def steps(gens, descents):
        return gens - descents if up else gens & descents

    while True:
        if left := steps(lam.gens, w.left_descents):
            w = affperm.generator(w.r, min(left)) * w
        elif right := steps(mu.gens, w.right_descents):
            w = w * affperm.generator(w.r, min(right))
        else:
            return w


def min_double_rep(w: AffPerm, lam: Composition, mu: Composition) -> AffPerm:
    """The unique shortest element of W_lambda w W_mu, by greedy descent stripping."""
    return _walk(w, lam, mu, up=False)


@dataclass(frozen=True, eq=False, init=False)
class PeriodicMatrix(Interned):
    """An n-periodic N-matrix, stored as the strip rows 1..n of nonzero entries,
    one object per value."""

    n: int
    entries: tuple[tuple[int, int, int], ...]
    SIZES = ("n", "r")  # the header sizes an element keyed by matrices shares with each key

    def __post_init__(self):
        ent = tuple(sorted(tuple(e) for e in self.entries))
        object.__setattr__(self, "entries", ent)
        if type(self.n) is not int or any(type(v) is not int for e in ent for v in e):
            raise TypeError(f"matrix size and entries must be integers: {self.n}, {ent}")
        if self.n < 1:
            raise InvalidMatrix("n must be at least 1")
        seen = set()
        for i, j, a in ent:
            if not 1 <= i <= self.n:
                raise InvalidMatrix(f"strip row {i} outside 1..{self.n}")
            if a <= 0:
                raise InvalidMatrix("stored entries must be positive")
            if (i, j) in seen:
                raise InvalidMatrix(f"duplicate entry at ({i}, {j})")
            seen.add((i, j))
        if not ent:
            raise InvalidMatrix("zero matrices (r = 0) are rejected")

    @functools.cached_property
    def r(self) -> int:
        """The sum of the entries."""
        return sum(a for _, _, a in self.entries)

    def entry(self, k: int, l: int) -> int:
        """The entry a_{k,l} for arbitrary k, l in Z, by periodicity."""
        i = (k - 1) % self.n + 1
        shift = k - i
        return self._strip.get((i, l - shift), 0)

    @functools.cached_property
    def _strip(self) -> dict[tuple[int, int], int]:
        return {(i, j): a for i, j, a in self.entries}

    @functools.cached_property
    def ro(self) -> Composition:
        sums = [0] * self.n
        for i, _, a in self.entries:
            sums[i - 1] += a
        return Composition(self.n, tuple(sums))

    @functools.cached_property
    def co(self) -> Composition:
        sums = [0] * self.n
        for _, j, a in self.entries:
            sums[(j - 1) % self.n] += a
        return Composition(self.n, tuple(sums))

    def transpose(self) -> "PeriodicMatrix":
        """The transpose, built once per matrix; transposing it gives back self."""
        t = self.__dict__.get("_transpose")
        if t is None:
            ent = []
            for i, j, a in self.entries:
                jbar = (j - 1) % self.n + 1
                shift = j - jbar
                ent.append((jbar, i - shift, a))
            t = PeriodicMatrix(self.n, tuple(ent))
            self.__dict__["_transpose"] = t
            t.__dict__["_transpose"] = self
        return t

    @property
    def sort_key(self) -> tuple:
        return (self.n, self.entries)

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "entries": [list(e) for e in self.entries]}

    @staticmethod
    def from_json(obj: dict) -> "PeriodicMatrix":
        m = PeriodicMatrix(obj["n"], tuple(tuple(e) for e in obj["entries"]))
        if "r" in obj and obj["r"] != m.r:
            raise InvalidMatrix(f"declared r={obj['r']} but entries sum to {m.r}")
        return m

    def key_json(self) -> dict:
        return {"matrix": [list(e) for e in self.entries]}

    @staticmethod
    def from_key_json(term: dict, header: dict) -> "PeriodicMatrix":
        return PeriodicMatrix(header["n"], tuple(tuple(e) for e in term["matrix"]))

    @staticmethod
    def diagonal(lam: Composition) -> "PeriodicMatrix":
        ent = tuple((i, i, p) for i, p in enumerate(lam.parts, start=1) if p > 0)
        return PeriodicMatrix(lam.n, ent)

    def __repr__(self) -> str:
        return f"PeriodicMatrix({self.n}, {self.entries})"


@functools.lru_cache(maxsize=None)
def matrix_of(lam: Composition, w: AffPerm, mu: Composition) -> PeriodicMatrix:
    """The matrix A = (|R_k^lam  intersect  w R_l^mu|) of W_lambda w W_mu.

    W_lambda and W_mu map every block onto itself, so any w in the coset gives A.
    """
    if lam.r != w.r or mu.r != w.r:
        raise PeriodMismatch("composition sizes and permutation period differ")
    if lam.n != mu.n:
        raise PeriodMismatch(f"compositions with {lam.n} and {mu.n} parts give no n-periodic matrix")
    winv = w.inverse
    counts: dict[tuple[int, int], int] = {}
    for m in range(1, lam.r + 1):
        k = lam.block_of(m)
        l = mu.block_of(winv.apply(m))
        counts[(k, l)] = counts.get((k, l), 0) + 1
    return PeriodicMatrix(lam.n, tuple((k, l, a) for (k, l), a in counts.items()))


@functools.lru_cache(maxsize=None)
def min_rep(A: PeriodicMatrix) -> AffPerm:
    """The inverse bijection: the shortest element w of the double coset of A.

    Each column block of mu = co(A) is cut into consecutive pieces of sizes
    a_{k,l} with k increasing, each row block of lambda = ro(A) into pieces
    with l increasing, and w sends the (k,l)-piece of R_l order-preservingly
    onto the (k,l)-piece of R_k.
    """
    lam, mu = A.ro, A.co
    win = []
    for p in range(1, mu.r + 1):
        l = mu.block_of(p)
        offset = p - mu.block_start(l)
        rows = _column_profile(A, l)
        cum = 0
        for k, a in rows:
            if offset < cum + a:
                inner = offset - cum
                break
            cum += a
        else:
            raise InvalidMatrix(f"column block {l} shorter than its sum")
        before = sum(a2 for l2, a2 in _row_profile(A, k) if l2 < l)
        win.append(lam.block_start(k) + before + inner)
    w = AffPerm(lam.r, tuple(win))
    if not is_min_double_rep(w, lam, mu):
        raise InvalidMatrix(f"matrix {A} rebuilt a non-minimal representative {w}")
    return w


def coset_of(lam: Composition, w: AffPerm, mu: Composition) -> frozenset[AffPerm]:
    """The full (finite) double coset W_lambda w W_mu; lambda and mu may differ in length."""
    return frozenset(u * w * v for u in young_elements(lam) for v in young_elements(mu))


@functools.lru_cache(maxsize=None)
def double_coset(A: PeriodicMatrix) -> frozenset[AffPerm]:
    """The double coset of A."""
    return coset_of(A.ro, min_rep(A), A.co)


@functools.lru_cache(maxsize=None)
def plus_rep(A: PeriodicMatrix) -> AffPerm:
    """The longest double-coset representative w_A^+, by greedy ascent."""
    return _walk(min_rep(A), A.ro, A.co, up=True)


def _column_profile(A: PeriodicMatrix, l: int) -> list[tuple[int, int]]:
    """Nonzero entries (k, a_{k,l}) of column l, with k increasing."""
    out = []
    for i, j, a in A.entries:
        if (l - j) % A.n == 0:
            out.append((i + (l - j) // A.n * A.n, a))
    return sorted(out)


def _row_profile(A: PeriodicMatrix, k: int) -> list[tuple[int, int]]:
    """Nonzero entries (l, a_{k,l}) of row k, with l increasing."""
    i = (k - 1) % A.n + 1
    shift = k - i
    return sorted((j + shift, a) for i2, j, a in A.entries if i2 == i)


def d_A_combinatorial(A: PeriodicMatrix) -> int:
    """The orbit-dimension statistic: sum of a_{i,j} a_{k,l} over i >= k, j < l."""
    n = A.n
    total = 0
    for i, j, a in A.entries:
        for i2, j2, a2 in A.entries:
            # translates (i2 + m*n, j2 + m*n) with i2 + m*n <= i and j2 + m*n > j
            m_hi = (i - i2) // n
            m_lo = (j - j2) // n + 1
            count = m_hi - m_lo + 1
            if count > 0:
                total += a * a2 * count
    return total


@functools.lru_cache(maxsize=None)
def d_A_coxeter(A: PeriodicMatrix) -> int:
    """The same statistic through the Coxeter picture: l(w_A^+) - l(w_{0,mu})."""
    return plus_rep(A).length - longest_in_parabolic(A.co).length


def enumerate_theta(
    n: int,
    r: int,
    length_bound: int,
    omega_window: tuple[int, int] | None = None,
) -> tuple[PeriodicMatrix, ...]:
    """All matrices A with l(w_A^+) <= length_bound and rho-power in omega_window.

    Every length class of W is infinite under Omega, so the rho-power range
    must be bounded explicitly; it defaults to [-r, r].  Each matrix is found
    once, through its longest representative w_A^+ = u rho^a with u in the
    length ball.
    """
    if omega_window is None:
        omega_window = (-r, r)
    lo, hi = omega_window
    if lo > hi:
        raise InvalidMatrix(f"omega window {omega_window} is not ordered")
    comps = compositions(n, r)
    out = set()
    for lam in comps:
        for mu in comps:
            for u in affperm.ball(r, length_bound):
                for a in range(lo, hi + 1):
                    z = u.shift(a)
                    if is_max_double_rep(z, lam, mu):
                        out.add(matrix_of(lam, z, mu))
    return tuple(sorted(out, key=lambda A: A.sort_key))
