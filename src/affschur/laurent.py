"""Exact sparse Laurent polynomials over the integers.

This is the coefficient ring Z[t, 1/t] used everywhere else: Kazhdan-Lusztig
polynomials live in q = t^2, structure constants are bar-symmetric Laurent
polynomials in t, and the asymptotic ring extracts single coefficients.
Coefficients are Python bignums, exponents are stored sparsely, and the zero
polynomial is the empty dict.  The algebras built over this ring are free
modules with a distinguished basis; ``Combination`` is their shared element
arithmetic and ``linear`` / ``bilinear`` extend maps defined on basis keys.
Both run one fused multiply-accumulate kernel: the products c_k * d are summed
into raw {exponent: coefficient} dicts, one per output key, and a LaurentPoly
is built per key only at the end.  An image coefficient may be a plain int,
read as a constant polynomial.  ``peel`` inverts a triangular change of basis.
The bar kernel of ``hecke`` sums into the same raw dicts from integer codes; it
groups by coefficient, and a LaurentPoly keeps its hash once computed.

>>> p = T + T**-1
>>> p * p == T**2 + 2 + T**-2
True
>>> p.bar() == p
True
>>> (T**2 + 2 + T**-2).exact_div(p) == p
True
"""

from __future__ import annotations

import re
from dataclasses import MISSING, fields, replace
from fractions import Fraction
from operator import attrgetter
from typing import Callable, ClassVar, Iterable, Iterator, Mapping

from .errors import BasisMismatch, DivisionByZero, InexactDivision, PeriodMismatch, ZeroBase

__all__ = ["LaurentPoly", "ZERO", "ONE", "T", "TINV", "Q", "QINV", "NEG_INF", "t_pow",
           "Combination", "linear", "bilinear", "peel"]

# degree of the zero polynomial
NEG_INF = float("-inf")


class LaurentPoly:
    """An element of Z[t, 1/t], stored as {exponent: nonzero coefficient}."""

    # _h: the hash and _j: the JSON dict, each kept on first use (a value
    # never changes); to_json hands out copies of _j
    __slots__ = ("_c", "_h", "_j")

    def __init__(self, coeffs: Mapping[int, int] | int = 0):
        if isinstance(coeffs, int):
            self._c = {0: coeffs} if coeffs else {}
        else:
            self._c = {e: c for e, c in coeffs.items() if c}

    # -- basic protocol ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            self._h = h = hash(frozenset(self._c.items()))
            return h

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def __repr__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, c in sorted(self._c.items(), reverse=True):
            if e == 0:
                parts.append(f"{c:+d}")
            else:
                mono = "t" if e == 1 else f"t^{e}"
                if c == 1:
                    parts.append(f"+{mono}")
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c:+d}*{mono}")
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            nv = c.get(e, 0) + v
            if nv:
                c[e] = nv
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            out = LaurentPoly.__new__(LaurentPoly)
            out._c = {e: v * other for e, v in self._c.items()}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                nv = c.get(e, 0) + v1 * v2
                if nv:
                    c[e] = nv
                elif e in c:
                    del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if len(self._c) == 1:
            ((e, v),) = self._c.items()
            if n >= 0 or v in (1, -1):
                return LaurentPoly({e * n: v ** abs(n)})
        if n < 0:
            raise InexactDivision("negative power of a non-unit")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure maps ----------------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The involution t -> 1/t (negate every exponent)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {-e: v for e, v in self._c.items()}
        return out

    def neg_t(self) -> "LaurentPoly":
        """The substitution t -> -t (negates odd-exponent coefficients)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: (-v if e & 1 else v) for e, v in self._c.items()}
        return out

    # -- queries ---------------------------------------------------------

    def degree(self) -> "int | float":
        """Maximum exponent in t; NEG_INF for the zero polynomial."""
        return max(self._c) if self._c else NEG_INF

    def min_degree(self) -> "int | float":
        return min(self._c) if self._c else -NEG_INF

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self._c.values())

    def is_bar_symmetric(self) -> bool:
        return all(self._c.get(-e, 0) == v for e, v in self._c.items())

    def in_q(self) -> bool:
        """True if every exponent is even, i.e. the value lies in Z[q, 1/q]."""
        return all(e % 2 == 0 for e in self._c)

    # -- evaluation and division ------------------------------------------

    def evaluate(self, v: "Fraction | int") -> Fraction:
        """Exact evaluation at a nonzero rational value of t."""
        v = Fraction(v)
        if v == 0:
            raise ZeroBase("cannot evaluate a Laurent polynomial at t = 0")
        return sum((Fraction(c) * v**e for e, c in self._c.items()), Fraction(0))

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Return q with q * other == self, or raise InexactDivision."""
        if not isinstance(other, LaurentPoly) or other.is_zero():
            raise DivisionByZero("division by the zero Laurent polynomial")
        if self.is_zero():
            return ZERO
        rem = dict(self._c)
        eb = max(other._c)
        cb = other._c[eb]
        # exponents of an exact quotient lie in [min(a)-min(b), max(a)-max(b)]
        floor_exp = min(self._c) - min(other._c)
        quot: dict[int, int] = {}
        while rem:
            er = max(rem)
            cr = rem[er]
            eq = er - eb
            if eq < floor_exp or cr % cb != 0:
                raise InexactDivision(f"{self!r} is not divisible by {other!r}")
            cq = cr // cb
            quot[eq] = cq
            for e2, v2 in other._c.items():
                e = eq + e2
                nv = rem.get(e, 0) - cq * v2
                if nv:
                    rem[e] = nv
                elif e in rem:
                    del rem[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = quot
        return out

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict[str, str]:
        """JSON object mapping decimal exponents to decimal coefficients: a
        fresh copy, each call, of the dict kept on first use."""
        try:
            return self._j.copy()
        except AttributeError:
            self._j = j = {str(e): str(c) for e, c in sorted(self._c.items())}
            return j.copy()

    @staticmethod
    def from_json(obj: Mapping[str, "str | int"]) -> "LaurentPoly":
        """Parse to_json output: exponents and coefficients are the decimal strings
        to_json writes (-?[0-9]+, ASCII); a coefficient may also be an integer,
        never a boolean."""
        if not isinstance(obj, Mapping) or not all(
                type(e) is str and _DECIMAL(e) and (type(c) is int or type(c) is str and _DECIMAL(c))
                for e, c in obj.items()):
            raise TypeError(f"a polynomial is an object of decimal integers, not {obj!r}")
        return LaurentPoly({int(e): int(c) for e, c in obj.items()})


# the form to_json writes an integer in: ASCII digits after an optional minus sign
_DECIMAL = re.compile("-?[0-9]+").fullmatch

ZERO = LaurentPoly(0)
ONE = LaurentPoly(1)
T = LaurentPoly({1: 1})
TINV = LaurentPoly({-1: 1})
Q = LaurentPoly({2: 1})
QINV = LaurentPoly({-2: 1})


def t_pow(exp: int, coeff: int = 1) -> LaurentPoly:
    """Shorthand for the monomial coeff * t^exp."""
    return LaurentPoly({exp: coeff})


# ---------------------------------------------------------------------------
# Free Z[t, 1/t]-modules with a distinguished basis


class Combination:
    """A finitely supported combination sum_k c_k b_k of basis keys b_k with
    Laurent coefficients c_k: the shared element protocol of the algebras.

    Subclasses are frozen dataclasses (with eq=False, repr=False) whose field
    ``terms`` maps keys to coefficients; every other field is the header that
    two combinations must share to be equal.  ``TAG`` names the header field
    that names the basis, and ``KEYS`` maps each basis name to its key class.
    Every other header field is a size: each key carries the sizes its class
    lists in ``SIZES`` and must share them, and a size the key class does not
    carry keeps its default.  A key class also supplies ``sort_key``,
    ``key_json`` and ``from_key_json``.  An int coefficient is read as a
    constant polynomial, and zero coefficients drop out.
    """

    TAG: ClassVar[str]
    KEYS: ClassVar[Mapping[str, type]]
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # runs before @dataclass: the fields are the annotations, a default a class attribute
        cls._HEADER = tuple(a for a in cls.__dict__["__annotations__"] if a != "terms")
        cls._SIZES = tuple(a for a in cls._HEADER if a != cls.TAG)
        cls._size_of = attrgetter(*cls._SIZES)
        cls._CHECKS = {}
        for tag, kind in cls.KEYS.items():
            carried = [a for a in cls._SIZES if a in kind.SIZES]
            fixed = tuple((a, cls.__dict__[a]) for a in cls._SIZES if a not in kind.SIZES)
            cls._CHECKS[tag] = kind, attrgetter(*carried), fixed

    def __post_init__(self):
        # c._c, not bool(c): the test runs once per term, and a slot call costs more
        terms = {k: LaurentPoly(c) if type(c) is int else c
                 for k, c in self.terms.items() if (c if type(c) is int else c._c)}
        object.__setattr__(self, "terms", terms)
        tag = getattr(self, self.TAG)
        check = self._CHECKS.get(tag)
        if check is None:
            raise BasisMismatch(f"unknown {type(self).__name__} basis tag {tag!r}")
        kind, sizes, fixed = check
        want = sizes(self)
        for k in terms:
            if type(k) is not kind:
                raise BasisMismatch(f"{k!r} is not a basis key of {tag}")
            if sizes(k) != want:
                raise PeriodMismatch(f"{k!r} does not live in {self._sizes()}")
        for a, default in fixed:
            if getattr(self, a) != default:
                raise PeriodMismatch(f"{tag} has no size {a}: {a} must be {default!r}")

    def _sizes(self) -> str:
        return ", ".join(f"{a}={getattr(self, a)}" for a in self._SIZES)

    def _check_compatible(self, other) -> None:
        if type(other) is not type(self):
            raise BasisMismatch(f"{type(self).__name__} and {type(other).__name__} differ")
        if self._size_of(self) != self._size_of(other):
            raise PeriodMismatch(f"sizes {self._sizes()} and {other._sizes()} differ")
        mine, theirs = getattr(self, self.TAG), getattr(other, self.TAG)
        if mine != theirs:
            raise BasisMismatch(f"bases {mine} and {theirs} differ")

    def _header(self) -> dict:
        return {a: getattr(self, a) for a in self._HEADER}

    def coeff(self, key) -> LaurentPoly:
        return self.terms.get(key, ZERO)

    def support(self) -> list:
        return sorted(self.terms, key=lambda k: k.sort_key)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._header() == other._header() and self.terms == other.terms

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, ZERO) + c
        return replace(self, terms=terms)

    def __sub__(self, other):
        self._check_compatible(other)
        return self + other.scale(-1)

    def scale(self, c: "LaurentPoly | int"):
        return replace(self, terms={k: v * c for k, v in self.terms.items()})

    def __repr__(self) -> str:
        head = "".join(f"{getattr(self, a)!r}, " for a in self._HEADER)
        bits = ", ".join(f"{k!r}: {self.terms[k]!r}" for k in self.support())
        return f"{type(self).__name__}({head}{{{bits}}})"

    def to_json(self) -> dict:
        out = self._header()
        out["terms"] = [dict(k.key_json(), coeff=c.to_json())
                        for k, c in sorted(self.terms.items(), key=lambda kc: kc[0].sort_key)]
        return out

    @classmethod
    def from_json(cls, obj: dict):
        """Parse to_json output.  A missing header field takes its default; a
        coefficient may also be an integer string, and a missing one means 1."""
        header = {f.name: obj[f.name] if f.name in obj or f.default is MISSING else f.default
                  for f in fields(cls) if f.name != "terms"}
        cls(**header)  # the header alone is checked first: an unknown tag is refused here
        kind = cls.KEYS[header[cls.TAG]]
        terms = {}
        for t in obj["terms"]:
            if not isinstance(t, dict):
                raise TypeError(f"a term is an object, not {t!r}")
            coeff = t.get("coeff", "1")
            terms[kind.from_key_json(t, header)] = LaurentPoly.from_json(
                {"0": coeff} if isinstance(coeff, str) else coeff)
        return cls(**header, terms=terms)


def _coeffs(c: "LaurentPoly | int") -> Mapping[int, int]:
    """The {exponent: coefficient} dict of c; an int is a constant polynomial."""
    return c._c if isinstance(c, LaurentPoly) else {0: c}


def linear(terms: Mapping, image: Callable[[object], Iterable[tuple]]) -> dict:
    """sum_k c_k image(k) as a term dict, for image(k) given as (key, coeff) pairs;
    coefficients may be LaurentPolys or ints, and keys that cancel drop out."""
    acc: dict = {}
    for k, c in terms.items():
        cc = _coeffs(c).items()
        for k2, d in image(k):
            dd = _coeffs(d).items()
            if not dd:
                continue
            row = acc.get(k2)
            if row is None:
                row = acc[k2] = {}
            # the shorter factor outside, so the inner loop runs long
            outer, inner = (cc, dd) if len(cc) <= len(dd) else (dd, cc)
            for e1, v1 in outer:
                for e2, v2 in inner:
                    e = e1 + e2
                    row[e] = row.get(e, 0) + v1 * v2
    return {k: p for k, row in acc.items() if (p := LaurentPoly(row))}


def bilinear(
    a: Mapping, b: Mapping, image: Callable[[object, object], Iterable[tuple]]
) -> dict:
    """sum_{x,y} a_x b_y image(x, y) as a term dict: the bilinear extension."""
    pairs = {(x, y): cx * cy for x, cx in a.items() for y, cy in b.items()}
    return linear(pairs, lambda p: image(*p))


def peel(terms: Mapping, top: Callable, column: Callable[[object], tuple]) -> dict:
    """Solve sum_k x_k column_k = terms for a triangular change of basis, as a
    term dict {k: x_k}.

    The key k with the largest top(k) left in the remainder is peeled next:
    column(k) = (lead, col) gives col, the column of k as (key, coeff) pairs
    with every key but k itself strictly below k, and lead, the inverse of
    k's own coefficient in col, so x_k = lead * (the remaining coefficient).
    """
    work = dict(terms)
    out: dict = {}
    while work:
        k = max(work, key=top)
        lead, col = column(k)
        g = out[k] = work[k] * lead
        for k2, c in col:
            nv = work.get(k2, ZERO) - g * c
            if nv.is_zero():
                work.pop(k2, None)
            else:
                work[k2] = nv
    return out
