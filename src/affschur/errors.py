"""Exception types shared across the package.

Every domain error named by an operation contract gets its own class so
callers (and the CLI exit-code mapping) can tell them apart.
"""

__all__ = [
    "AffschurError",
    "InexactDivision",
    "DivisionByZero",
    "ZeroBase",
    "PeriodMismatch",
    "IndexOutOfRange",
    "InvalidWindow",
    "InvalidMatrix",
    "BasisMismatch",
    "NotInModule",
    "UncertifiedAValue",
    "UncertifiedBoundary",
    "WindowExceeded",
    "CacheIoError",
    "KLInvariantViolation",
]


class AffschurError(Exception):
    """Base class for all domain errors raised by this package."""


class InexactDivision(AffschurError, ArithmeticError):
    """Exact division was requested but no quotient exists over Z[t,1/t]."""


class DivisionByZero(AffschurError, ZeroDivisionError):
    """Division by the zero Laurent polynomial."""


class ZeroBase(AffschurError, ZeroDivisionError):
    """Evaluation of a Laurent polynomial at 0 (negative exponents blow up)."""


class PeriodMismatch(AffschurError, ValueError):
    """Two periodic permutations (or elements over them) have different periods."""


class IndexOutOfRange(AffschurError, IndexError):
    """A generator or word index lies outside 0..r-1."""


class InvalidWindow(AffschurError, ValueError):
    """A window is not a valid periodic permutation (repeated residues)."""


class InvalidMatrix(AffschurError, ValueError):
    """A periodic matrix has inconsistent row/column data."""


class BasisMismatch(AffschurError, ValueError):
    """An operation received elements tagged with the wrong basis."""


class NotInModule(AffschurError, ValueError):
    """A Hecke element does not lie in the required induced module x_mu*H."""


class UncertifiedAValue(AffschurError, ValueError):
    """A gamma-coefficient (or similar) was requested from an uncertified a-value."""


class UncertifiedBoundary(AffschurError, ValueError):
    """A windowed enumeration could not certify every a-value it needs."""


class WindowExceeded(AffschurError, ValueError):
    """A product term left the certified window of a bounded computation."""


class CacheIoError(AffschurError, OSError):
    """The on-disk cache could not be read or written."""


class KLInvariantViolation(AffschurError, ArithmeticError):
    """A Kazhdan-Lusztig polynomial broke a proven invariant (such as its degree
    bound), so a memo entry, possibly one loaded from a cache, is wrong."""
