"""One object per value for the immutable value classes, and one memo class.

A subclass declares its fields as class annotations, in order, and validates
and normalizes them in ``__post_init__``.  The constructor validates, then
returns the one object held for the normalized field tuple: equal values are
the same object, equality is identity, and the hash, stored on the object, is
the hash of the field tuple.  ``_unchecked`` skips validation, for fields
known to be valid.  The tables are never cleared: memo tables hold their
objects.

>>> from affschur.parabolic import Composition
>>> Composition(2, [1, 1]) is Composition(2, (1, 1))
True
"""

from __future__ import annotations

__all__ = ["Interned", "Memo"]


class Interned:
    """Base class: one object per field tuple, with its hash stored."""

    _fields: tuple[str, ...]
    _table: dict[tuple, "Interned"]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._table = {}

    def __new__(cls, *values):
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments, got {len(values)}")
        obj = object.__new__(cls)
        obj.__dict__.update(zip(cls._fields, values))
        obj.__post_init__()  # validate before the table sees the fields
        return cls._unchecked(*map(obj.__dict__.__getitem__, cls._fields))

    @classmethod
    def _unchecked(cls, *values):
        obj = cls._table.get(values)
        if obj is None:
            obj = object.__new__(cls)
            obj.__dict__.update(zip(cls._fields, values), _hash=hash(values))
            # setdefault, not a store: of two threads that both missed, the
            # first to insert wins and both get its object
            obj = cls._table.setdefault(values, obj)
        return obj

    # == is object identity, inherited from object
    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: the canonical object
        return type(self), tuple(map(self.__dict__.__getitem__, self._fields))


class Memo(dict):
    """The get-or-fill memo table of the package: a missing value is computed
    as fill(*key) for a tuple key, else fill(key), and stored; of two threads
    that both miss, the first to store wins.

    >>> m = Memo(lambda *key: list(key))
    >>> m[1, 2], m["k"], m[1, 2] is m[1, 2]
    ([1, 2], ['k'], True)
    """

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        return self.setdefault(key, self.fill(*key) if type(key) is tuple else self.fill(key))
