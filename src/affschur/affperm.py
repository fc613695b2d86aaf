"""The extended affine symmetric group in window notation.

Elements are periodic bijections w of the integers with w(i + r) = w(i) + r,
stored by the window (w(1), ..., w(r)).  The Coxeter part W' is generated by
s_0, ..., s_{r-1}; the length-zero rotation rho shifts every integer by one
and generates the group Omega, with W = Omega x| W'.

>>> s0 = generator(2, 0)
>>> s0.window
(0, 3)
>>> (s0 * s0).is_identity()
True
>>> rho(2).length
0
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .errors import IndexOutOfRange, InvalidWindow, PeriodMismatch
from .interned import Interned

__all__ = [
    "MAX_PERIOD",
    "MAX_THETA_WINDOW",
    "AffPerm",
    "identity",
    "generator",
    "rho",
    "from_word",
    "ball",
    "bruhat_leq",
    "bruhat_lower",
    "rho_conjugate",
    "descend",
]

# The largest period r that parsed input (a CLI argument or a KL-cache record)
# may have.  AffPerm.length is quadratic in r, so without a bound the 23-byte
# argument {"r":1000000,"word":[]} would ask for hours of work; every
# computation here is practical only for small r.
MAX_PERIOD = 256
# The largest matrix window that a command may enumerate, counted as pairs of
# compositions times rho-powers: C(n + r - 1, r)^2 * (hi - lo + 1).  Every
# window in the tests, the README and the benchmark lies far below it (the
# (4,2) Q-suite over rho-powers -2..2 counts 500); without it `--n 100000` or a
# 200,001-wide rho-window would run for hours.
MAX_THETA_WINDOW = 10_000


@dataclass(frozen=True, eq=False, init=False)
class AffPerm(Interned):
    """A periodic permutation of Z with period r, given by its window.

    Building an element equal to an existing one returns the existing object,
    so equal elements share one hash, length, descent set, inverse and table
    of left products by the generators.
    """

    r: int
    window: tuple[int, ...]
    SIZES = ("r",)  # the header sizes an element keyed by windows shares with each key

    def __post_init__(self):
        object.__setattr__(self, "window", tuple(self.window))
        if type(self.r) is not int or any(type(v) is not int for v in self.window):
            raise TypeError(f"period and window entries must be integers: {self.r}, {self.window}")
        if self.r < 1 or len(self.window) != self.r:
            raise InvalidWindow(f"window {self.window} has wrong size for r={self.r}")
        if len({v % self.r for v in self.window}) != self.r:
            raise InvalidWindow(f"window {self.window} repeats a residue mod {self.r}")

    # -- evaluation and group law ----------------------------------------

    def apply(self, i: int) -> int:
        """The image w(i), via periodic extension of the window."""
        j = (i - 1) % self.r
        return self.window[j] + (i - 1 - j)

    def __mul__(self, other: "AffPerm") -> "AffPerm":
        """Composition (self*other)(i) = self(other(i))."""
        if not isinstance(other, AffPerm):
            return NotImplemented
        if self.r != other.r:
            raise PeriodMismatch(f"periods {self.r} and {other.r} differ")
        r, win = self.r, self.window
        return AffPerm._unchecked(r, tuple(win[(v - 1) % r] + (v - 1) // r * r for v in other.window))

    def left(self, i: int) -> "AffPerm":
        """The element s_i * self, read from a table by i filled on first use."""
        table = self._lefts
        x = table[i]
        if x is None:
            x = table[i] = generator(self.r, i) * self
        return x

    @functools.cached_property
    def _lefts(self) -> list:
        return [None] * self.r

    @functools.cached_property
    def inverse(self) -> "AffPerm":
        win = [0] * self.r
        for i, v in enumerate(self.window, start=1):
            j = (v - 1) % self.r
            # w(i) = (j+1) + k*r  =>  w^{-1}(j+1) = i - k*r
            win[j] = i - (v - 1 - j)
        return AffPerm._unchecked(self.r, tuple(win))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.window, start=1))

    # -- statistics --------------------------------------------------------

    @functools.cached_property
    def length(self) -> int:
        """Coxeter length, by the floor-sum inversion count over the window."""
        w, r = self.window, self.r
        return sum(
            abs((w[j] - w[i]) // r) for i in range(r) for j in range(i + 1, r)
        )

    @functools.cached_property
    def omega_degree(self) -> int:
        """The power of rho in the factorization rho^a * (element of W')."""
        return (sum(self.window) - self.r * (self.r + 1) // 2) // self.r

    @functools.cached_property
    def right_descents(self) -> frozenset[int]:
        """Indices i in 0..r-1 with w*s_i < w, i.e. w(i) > w(i+1)."""
        if self.r == 1:
            return frozenset()
        out = set()
        if self.window[self.r - 1] - self.r > self.window[0]:
            out.add(0)
        for i in range(1, self.r):
            if self.window[i - 1] > self.window[i]:
                out.add(i)
        return frozenset(out)

    @functools.cached_property
    def left_descents(self) -> frozenset[int]:
        return self.inverse.right_descents

    @property
    def sort_key(self) -> tuple:
        return (self.length, self.window)

    # -- normal form -------------------------------------------------------

    def omega_split(self) -> tuple[int, "AffPerm"]:
        """Write self as rho^a * u with u in W'; returns (a, u)."""
        a = self.omega_degree
        if a == 0:
            return 0, self
        return a, AffPerm._unchecked(self.r, tuple(v - a for v in self.window))

    def shift(self, a: int, b: int = 0) -> "AffPerm":
        """The element rho^a * self * rho^b: rho^a adds a to every window
        entry, rho^b moves the window b places along the periodic extension."""
        r, win = self.r, self.window
        if b:
            return AffPerm._unchecked(
                r, tuple(win[(i + b) % r] + (i + b) // r * r + a for i in range(r))
            )
        if a == 0:
            return self
        return AffPerm._unchecked(r, tuple(v + a for v in win))

    def reduced_word(self) -> tuple[int, tuple[int, ...]]:
        """A reduced factorization rho^a * s_{i1} ... s_{ik}; returns (a, word).

        Letters are produced by greedily stripping the lowest-index right
        descent, so the word is canonical.
        """
        a, u = self.omega_split()
        letters = []
        while not u.is_identity():
            i = min(u.right_descents)
            letters.append(i)
            u = u * generator(self.r, i)
        return a, tuple(reversed(letters))

    def key_json(self) -> dict:
        return {"window": list(self.window)}

    @staticmethod
    def from_key_json(term: dict, header: dict) -> "AffPerm":
        return AffPerm(header["r"], tuple(term["window"]))

    def __repr__(self) -> str:
        return f"AffPerm({self.r}, {self.window})"


def identity(r: int) -> AffPerm:
    return AffPerm(r, tuple(range(1, r + 1)))


@functools.lru_cache(maxsize=None)
def generator(r: int, i: int) -> AffPerm:
    """The Coxeter generator s_i: adds 1 to integers = i, subtracts 1 from = i+1 (mod r)."""
    if r < 2:
        raise IndexOutOfRange(f"r={r} has no Coxeter generators")
    if not 0 <= i < r:
        raise IndexOutOfRange(f"generator index {i} not in 0..{r - 1}")
    win = []
    for j in range(1, r + 1):
        if j % r == i % r:
            win.append(j + 1)
        elif j % r == (i + 1) % r:
            win.append(j - 1)
        else:
            win.append(j)
    return AffPerm(r, tuple(win))


@functools.lru_cache(maxsize=None)
def rho(r: int, k: int = 1) -> AffPerm:
    """The length-zero rotation rho^k, taking every integer i to i + k."""
    return AffPerm(r, tuple(range(1 + k, r + 1 + k)))


def from_word(r: int, omega_power: int, word: Iterable[int]) -> AffPerm:
    """The element rho^omega_power * s_{i1} * ... * s_{ik} (word need not be reduced)."""
    w = rho(r, omega_power)
    for i in word:
        w = w * generator(r, i)
    return w


def rho_conjugate(w: AffPerm, k: int) -> AffPerm:
    """The conjugate rho^k * w * rho^{-k}; shifts generator indices by k mod r."""
    win = [0] * w.r
    for i in range(1, w.r + 1):
        j = (i - k - 1) % w.r
        win[i - 1] = w.window[j] + (i - k - 1 - j) + k
    return AffPerm._unchecked(w.r, tuple(win))


@functools.lru_cache(maxsize=None)
def ball(r: int, length_bound: int) -> tuple[AffPerm, ...]:
    """All elements of W' with length <= length_bound, sorted by (length, window)."""
    seen = {identity(r)}
    frontier = [identity(r)]
    for _ in range(length_bound):
        nxt = []
        for w in frontier:
            for i in range(r if r >= 2 else 0):
                ws = w * generator(r, i)
                if ws.length > w.length and ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: w.sort_key))


@functools.lru_cache(maxsize=None)
def _leq_coxeter(y: AffPerm, w: AffPerm) -> bool:
    # Bruhat order inside W', by the lifting property: for s a left descent of
    # w, y <= w iff sy <= sw when sy < y, else iff y <= sw.  A loop, since the
    # chain is l(w) steps long.
    while not (y == w or y.is_identity()):
        if y.length >= w.length:
            return False
        i = min(w.left_descents)
        sy = y.left(i)
        if sy.length < y.length:
            y = sy
        w = w.left(i)
    return True


def bruhat_leq(y: AffPerm, w: AffPerm) -> bool:
    """Bruhat order on W: rho^a*u <= rho^b*v iff a == b and u <= v in W'."""
    if y.r != w.r:
        raise PeriodMismatch(f"periods {y.r} and {w.r} differ")
    ay, uy = y.omega_split()
    aw, uw = w.omega_split()
    if ay != aw:
        return False
    return _leq_coxeter(uy, uw)


# _LOWER holds every ideal built, those along the descent chains included; the
# lru_cache on _lower_coxeter holds the ones callers asked for.
_LOWER: dict[AffPerm, frozenset[AffPerm]] = {}


def shared_elements() -> int:
    """The number of distinct elements built so far: each is one object."""
    return len(AffPerm._table)


def descend(x: AffPerm, made, base, make, deps=lambda y, i: ()):
    """f(x), made by an induction on length along lowest left descents.

    made(y) is f(y) once it is made, else None.  For s = s_i the lowest left
    descent of y, f(y) needs f(sy), then f(z) for each (z, label) in
    deps(sy, i), and make(y, i, f(sy), [((z, label), f(z)), ...]) makes it;
    base(y) makes f(y) for a y with no left descent, a power of rho.  An
    explicit work stack makes them in the order a recursion would, in place of
    a recursion l(x) deep, and calls deps(sy, i) only once f(sy) is made."""
    stack = [x]
    while stack:
        y = stack[-1]
        if made(y) is not None:
            stack.pop()
        elif not y.left_descents:
            base(y)
        else:
            i = min(y.left_descents)
            yp = y.left(i)
            first = made(yp)
            if first is None:
                stack.append(yp)
                continue
            zs = deps(yp, i)
            parts = [made(z) for z, _ in zs]
            todo = [z for (z, _), p in zip(zs, parts) if p is None]
            if todo:
                stack += reversed(todo)
            else:
                make(y, i, first, zip(zs, parts))
    return made(x)


@functools.lru_cache(maxsize=None)
def _lower_coxeter(w: AffPerm) -> frozenset[AffPerm]:
    """The ideal {y <= w} in W', made by descend as below | s_i*below for below
    the ideal of s_i*w, each s_i*y read from the table of y."""
    return descend(w, _LOWER.get, lambda e: _LOWER.setdefault(e, frozenset([e])),
                   lambda v, i, below, _: _LOWER.setdefault(
                       v, below | frozenset([y.left(i) for y in below])))


def bruhat_lower(w: AffPerm) -> frozenset[AffPerm]:
    """The (always finite) set {y : y <= w}."""
    a, u = w.omega_split()
    if a == 0:
        return _lower_coxeter(u)
    return frozenset(y.shift(a) for y in _lower_coxeter(u))

