"""JSON-lines persistence for the Kazhdan-Lusztig memo table.

One record per line: {"r": 2, "y": [...], "w": [...], "P": {"0": "1"}}.
Appends are single write() calls of whole lines, so concurrent writers
interleave at line granularity; loading tolerates duplicates (first record
wins) and skips corrupt lines with a warning count instead of failing.
"""

from __future__ import annotations

import json
import os

from . import hecke
from .errors import CacheIoError
from .laurent import LaurentPoly

__all__ = ["KLCache", "scan_stats"]


class KLCache:
    """Handle for one on-disk KL cache file."""

    def __init__(self, path: str):
        self.path = path
        self.loaded = 0
        self.duplicates = 0
        self.corrupt = 0
        self._persisted: set[tuple] = set()

    def load(self) -> "KLCache":
        """Read the file (if present) into the in-memory memo table."""
        for rec in _records(self.path):
            if rec is None:
                self.corrupt += 1
                continue
            key, poly = rec
            if hecke.kl_memo_insert(*key, poly):
                self.loaded += 1
            else:
                self.duplicates += 1
            self._persisted.add(key)
        return self

    def save_new(self) -> int:
        """Append every memo entry computed since the last load/save."""
        fresh = [
            (r, y, w, p)
            for (r, y, w, p) in hecke.kl_memo_items()
            if (r, y, w) not in self._persisted
        ]
        if not fresh:
            return 0
        fresh.sort(key=lambda t: (t[0], len(t[2]), t[2], t[1]))
        lines = _lines(fresh)
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write("".join(lines))
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise CacheIoError(f"cannot append to KL cache {self.path}: {exc}") from exc
        self._persisted.update((r, y, w) for r, y, w, _ in fresh)
        return len(fresh)

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
    corrupt line; a missing file has no records."""
    if not os.path.exists(path):
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    key = (rec["r"], tuple(rec["y"]), tuple(rec["w"]))
                    poly = LaurentPoly.from_json(rec["P"])
                except (KeyError, TypeError, ValueError):
                    yield None
                    continue
                yield key, poly
    except OSError as exc:
        raise CacheIoError(f"cannot read KL cache {path}: {exc}") from exc


def scan_stats(path: str) -> dict:
    """Inspect a cache file without touching the in-memory table."""
    records = 0
    corrupt = 0
    per_r: dict[int, int] = {}
    seen = set()
    duplicates = 0
    for rec in _records(path):
        if rec is None:
            corrupt += 1
            continue
        key, _ = rec
        records += 1
        per_r[key[0]] = per_r.get(key[0], 0) + 1
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
