"""JSON-lines persistence for the Kazhdan-Lusztig memo table.

One record per line: {"r": 2, "y": [...], "w": [...], "P": {"0": "1"}}.
A save streams the memo one row (one w) at a time and appends each row's
lines with one write() to an unbuffered file opened for appending, so every
write carries whole lines and concurrent writers interleave whole rows;
loading tolerates duplicates (first record wins) and skips corrupt lines with
a warning count instead of failing.

A load checks every record before the memo sees it, and counts a record that
fails as a corrupt line: both windows must build elements of W' (rho-degree
0), P_{w,w} must be 1, and a nonzero P_{y,w} must be a polynomial in q with
constant term 1 and t-degree at most l(w) - l(y) - 1, and r may be at most
MAX_PERIOD.  Whether y <= w holds is not checked: that needs the lower ideals.
Each distinct window is validated once, into one element, and each distinct P
is parsed and checked once, into one polynomial, shared by every record; only
P_{w,w} = 1 and the degree bound are checked per record.
"""

from __future__ import annotations

import json
import os

from . import hecke
from .affperm import MAX_PERIOD, AffPerm
from .errors import CacheIoError, InvalidWindow
from .laurent import ONE, LaurentPoly

__all__ = ["KLCache", "scan_stats"]


class KLCache:
    """Handle for one on-disk KL cache file."""

    def __init__(self, path: str):
        self.path = path
        self.loaded = 0
        self.duplicates = 0
        self.corrupt = 0
        # w -> the y with (y, w) already in the file: the shared elements
        # themselves, no tuple per record
        self._persisted: dict[AffPerm, set[AffPerm]] = {}

    def load(self) -> "KLCache":
        """Read the file (if present) into the in-memory memo table."""
        for rec in _checked(self.path):
            if rec is None:
                self.corrupt += 1
                continue
            y, w, poly = rec
            if hecke.kl_memo_insert(y, w, poly):
                self.loaded += 1
            else:
                self.duplicates += 1
            self._persisted.setdefault(w, set()).add(y)
        return self

    def save_new(self) -> int:
        """Append every memo entry computed since the last load/save, in
        (r, w, y) order; a save with nothing fresh opens no file."""
        done = self._persisted
        rows = sorted(hecke.kl_memo().rows(), key=lambda item: (item[0].r, item[0].window))
        written = 0
        fh = None
        try:
            for w, row in rows:
                seen = done.get(w, ())
                fresh = sorted((y for y in row if y not in seen), key=lambda y: y.window)
                if not fresh:
                    continue
                chunk = "".join(_lines((w.r, y.window, w.window, row[y]) for y in fresh)).encode()
                if fh is None:
                    fh = open(self.path, "ab", buffering=0)
                if fh.write(chunk) != len(chunk):
                    raise OSError("short write")
                done.setdefault(w, set()).update(fresh)
                written += len(fresh)
            if fh is not None:
                os.fsync(fh.fileno())
        except OSError as exc:
            raise CacheIoError(f"cannot append to KL cache {self.path}: {exc}") from exc
        finally:
            if fh is not None:
                fh.close()
        return written

    def stats(self) -> dict:
        return {
            "path": self.path,
            "loaded": self.loaded,
            "duplicates": self.duplicates,
            "corrupt_lines_skipped": self.corrupt,
            "memo": hecke.kl_memo_stats(),
        }


def _lines(records) -> list[str]:
    """One cache line per (r, y, w, P), each equal to the json.dumps of the
    record with sorted keys and no spaces; the text of P is built once per
    distinct polynomial."""
    texts: dict[LaurentPoly, str] = {}
    out = []
    for r, y, w, p in records:
        text = texts.get(p)
        if text is None:
            text = texts[p] = json.dumps(p.to_json(), sort_keys=True, separators=(",", ":"))
        out.append(f'{{"P":{text},"r":{r},"w":[{",".join(map(str, w))}],'
                   f'"y":[{",".join(map(str, y))}]}}\n')
    return out


def _records(path: str):
    """Yield ((r, y, w), P) for each record of a cache file, None for each
    corrupt line; r and the window entries are ints, and a missing file has
    no records.  Records whose P has the same items share one polynomial."""
    if not os.path.exists(path):
        return
    polys: dict[tuple, LaurentPoly] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    r, y, w = rec["r"], tuple(rec["y"]), tuple(rec["w"])
                    if not {int}.issuperset(map(type, (r, *y, *w))):
                        raise TypeError("r and the window entries must be integers")
                    key = tuple(rec["P"].items())
                    poly = polys.get(key)
                    if poly is None:
                        poly = polys[key] = LaurentPoly.from_json(rec["P"])
                except (AttributeError, KeyError, TypeError, ValueError):
                    yield None
                    continue
                yield (r, y, w), poly
    except OSError as exc:
        raise CacheIoError(f"cannot read KL cache {path}: {exc}") from exc


def _checked(path: str):
    """Yield (y, w, P) for each record of a cache file that passes the checks
    in the module docstring, None for each line that is corrupt or fails one.
    Each distinct window is validated once, into one element, and the checks
    that read P alone run once per distinct P."""
    elements: dict[tuple, AffPerm | None] = {}
    # keyed by id: _records gives equal P one object, alive while it reads
    shaped: dict[int, bool] = {}
    for rec in _records(path):
        if rec is not None:
            (r, y, w), poly = rec
            y, w = _element(elements, r, y), _element(elements, r, w)
            if y is not None and w is not None:
                ok = shaped.get(id(poly))
                if ok is None:
                    ok = shaped[id(poly)] = _shaped(poly)
                if _plausible(y, w, poly, ok):
                    yield y, w, poly
                    continue
        yield None


def _element(elements: dict, r: int, window: tuple) -> AffPerm | None:
    """The element of W' with this window, None if there is none or r is above
    MAX_PERIOD; memoized.  Only a window of rho-degree 0 reaches the interning
    constructor: a valid window has rho-degree 0 exactly when its entries sum
    to 1 + ... + r."""
    key = (r, window)
    x = elements.get(key, False)
    if x is False:
        x = None
        if r <= MAX_PERIOD and sum(window) == r * (r + 1) // 2:
            try:
                x = AffPerm(r, window)
            except InvalidWindow:
                pass
        elements[key] = x
    return x


def _shaped(p: LaurentPoly) -> bool:
    """The checks on P alone: zero, or a polynomial in q with constant term 1."""
    return p.is_zero() or (p.coeff(0) == 1 and p.in_q() and p.min_degree() >= 0)


def _plausible(y: AffPerm, w: AffPerm, p: LaurentPoly, shaped: bool) -> bool:
    """The checks on P_{y,w} that need no Bruhat order, given _shaped(p)."""
    if y is w:
        return p == ONE
    return shaped and p.degree() <= w.length - y.length - 1


def scan_stats(path: str) -> dict:
    """Inspect a cache file without touching the in-memory KL memo.  Like a
    load, it builds each valid element of the file, and elements are interned
    for the life of the process."""
    records = 0
    corrupt = 0
    per_r: dict[int, int] = {}
    seen = set()
    duplicates = 0
    for rec in _checked(path):
        if rec is None:
            corrupt += 1
            continue
        y, w, _ = rec
        key = (y, w)
        records += 1
        per_r[w.r] = per_r.get(w.r, 0) + 1
        if key in seen:
            duplicates += 1
        seen.add(key)
    return {
        "path": path,
        "exists": os.path.exists(path),
        "records": records,
        "unique": len(seen),
        "duplicates": duplicates,
        "corrupt_lines_skipped": corrupt,
        "per_r": {str(k): v for k, v in sorted(per_r.items())},
    }
