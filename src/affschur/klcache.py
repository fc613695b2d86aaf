"""JSON-lines persistence for the Kazhdan-Lusztig memo table.

One record per line: {"r": 2, "y": [...], "w": [...], "P": {"0": "1"}}.
A save streams the memo one row (one w) at a time and appends each row's
lines with one write() to an unbuffered file opened for appending, so every
write carries whole lines and concurrent writers interleave whole rows;
loading tolerates duplicates (first record wins) and skips corrupt lines with
a warning count instead of failing.

A load checks every record before the memo sees it, and counts a record that
fails as a corrupt line: both windows must build elements of W' (rho-degree
0), the coefficients of P must be integers or integer strings, P_{w,w} must be
1, P_{y,w} must pass hecke.kl_shaped and have t-degree at most l(w) - l(y) - 1,
and r may be at most MAX_PERIOD.  Whether y <= w holds needs the lower ideals:
hecke checks it when a row is first read, and scan_stats counts the nonzero
records with y not <= w as not_below_w.  Each distinct window becomes one
element, and each distinct P one polynomial, parsed and shape-checked once;
P_{w,w} = 1 and the degree bound are checked per record.
"""

from __future__ import annotations

import json
import os

from . import hecke
from .affperm import MAX_PERIOD, AffPerm, bruhat_lower
from .errors import CacheIoError, InvalidWindow
from .interned import Memo
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
        rows = sorted(hecke.kl_memo_rows(), key=lambda item: (item[0].r, item[0].window))
        written = 0
        texts: dict = {}  # the text of each P and window, shared by the rows
        fh = None
        try:
            for w, row in rows:
                seen = done.get(w, ())
                fresh = sorted((y for y in row if y not in seen), key=lambda y: y.window)
                if not fresh:
                    continue
                chunk = "".join(_lines(((w.r, y.window, w.window, row[y]) for y in fresh),
                                       texts)).encode()
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


def _lines(records, texts: "dict | None" = None) -> list[str]:
    """One cache line per (r, y, w, P), each equal to the json.dumps of the
    record with sorted keys and no spaces.  The text of each distinct P and
    of each distinct window is built once, into texts, which several calls
    may share."""
    texts = {} if texts is None else texts
    out = []
    for r, y, w, p in records:
        pt, wt, yt = texts.get(p), texts.get(w), texts.get(y)
        if pt is None:
            pt = texts[p] = json.dumps(p.to_json(), sort_keys=True, separators=(",", ":"))
        if wt is None:
            wt = texts[w] = ",".join(map(str, w))
        if yt is None:
            yt = texts[y] = ",".join(map(str, y))
        out.append(f'{{"P":{pt},"r":{r},"w":[{wt}],"y":[{yt}]}}\n')
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
                        poly = LaurentPoly.from_json(rec["P"])
                        # only text coefficients key the table: as keys, true == 1 == 1.0
                        if {str}.issuperset(map(type, rec["P"].values())):
                            polys[key] = poly
                except (AttributeError, KeyError, TypeError, ValueError):
                    yield None
                    continue
                yield (r, y, w), poly
    except OSError as exc:
        raise CacheIoError(f"cannot read KL cache {path}: {exc}") from exc


def _checked(path: str):
    """Yield (y, w, P) for each record of a cache file that passes the checks
    in the module docstring, None for each line that is corrupt or fails one.
    Each distinct window is validated once, into one element, and
    hecke.kl_shaped runs once per distinct P."""
    elements, shaped = Memo(_element), Memo(hecke.kl_shaped)
    for rec in _records(path):
        if rec is not None:
            (r, y, w), poly = rec
            y, w = elements[r, y], elements[r, w]
            if y is not None and w is not None and _plausible(y, w, poly, shaped[poly]):
                yield y, w, poly
                continue
        yield None


def _element(r: int, window: tuple) -> AffPerm | None:
    """The element of W' with this window, None if there is none or r is above
    MAX_PERIOD.  Only a window of rho-degree 0 reaches the interning
    constructor: a valid window has rho-degree 0 exactly when its entries sum
    to 1 + ... + r."""
    if r <= MAX_PERIOD and sum(window) == r * (r + 1) // 2:
        try:
            return AffPerm(r, window)
        except InvalidWindow:
            pass
    return None


def _plausible(y: AffPerm, w: AffPerm, p: LaurentPoly, shaped: bool) -> bool:
    """The checks on P_{y,w} that need no Bruhat order, given hecke.kl_shaped(p)."""
    if y is w:
        return p == ONE
    return shaped and p.degree() <= w.length - y.length - 1


def scan_stats(path: str) -> dict:
    """Inspect a cache file without touching the in-memory KL memo.  Like a
    load, it builds each valid element of the file, and elements are interned
    for the life of the process; it also builds the lower ideal of each row
    with a nonzero record P_{y,w}, y != w, to count those with y not <= w."""
    records = 0
    corrupt = 0
    not_below = 0
    per_r: dict[int, int] = {}
    seen = set()
    duplicates = 0
    for rec in _checked(path):
        if rec is None:
            corrupt += 1
            continue
        y, w, p = rec
        key = (y, w)
        records += 1
        if y is not w and not p.is_zero() and y not in bruhat_lower(w):
            not_below += 1
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
        "not_below_w": not_below,
        "per_r": {str(k): v for k, v in sorted(per_r.items())},
    }
