"""Two-tier content-addressed cache of finished experiment cells.

Tier 1 — :class:`MemoryResultCache`: a bounded in-process LRU keyed by
the same fingerprints as the disk tier.  It is always on (the engine
holds one even with no cache directory configured), so duplicate cells
shared between experiments in one process — e.g. the baseline and
push-all cells that appear in both halves of Fig. 3 — execute once.

Tier 2 — :class:`ResultCache`: the on-disk store.  Layout (under the
cache root)::

    cells/<key[:2]>/<key>.pkl     checksummed pickled cell result: a
                                  RepeatedResult (collect) or a
                                  CellSummary (summary); both pickle
                                  as their three fields
    orders/<key>.json             memoized §4.2 push orders
    records.jsonl                 one JSON line per finished cell

Keys come from :mod:`.fingerprint`: they cover the spec, strategy,
conditions, runs, seed base, and the cell's reducer row when it is not
``collect``, so any configuration change yields a different key and the
stale entry is simply never read again.

Durability: cell files are :mod:`repro.checksummed` files — magic
header, SHA-256 of the payload, atomic write, and a quarantine
(``*.corrupt`` plus a logged warning) for anything that fails to
validate, so the cell is recomputed instead of the corruption being
silently swallowed.
"""

from __future__ import annotations

import json
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import List, Optional

from ... import checksummed
from ..runner import CellResult

#: Environment variable naming the default cache directory.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: Header of every cell file; bumped when the on-disk format changes
#: (old entries then fail validation and are recomputed).
CELL_MAGIC = b"RPRC2\n"

#: Cells the in-process tier of an engine keeps.
MEMORY_CACHE_CAPACITY = 256


def default_cache_dir() -> Optional[Path]:
    """Cache root from ``$REPRO_CACHE_DIR``; ``None`` disables caching."""
    value = os.environ.get(CACHE_ENV_VAR, "").strip()
    return Path(value) if value else None


class MemoryResultCache:
    """Tier-1 bounded LRU of finished cells, keyed by fingerprint.

    Results are returned by reference — callers treat cell results as
    immutable (everything downstream of the engine already does).
    """

    def __init__(self, capacity: int = MEMORY_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CellResult]" = OrderedDict()

    def get(self, key: str) -> Optional[CellResult]:
        try:
            self._entries.move_to_end(key)
        except KeyError:
            return None
        return self._entries[key]

    def put(self, key: str, result: CellResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


#: What ``pickle.loads`` raises on a payload from another code version:
#: a renamed module or class, a changed constructor, a truncated stream.
_INCOMPATIBLE_PAYLOAD = (
    pickle.UnpicklingError,
    AttributeError,
    ImportError,
    EOFError,
    TypeError,
    ValueError,
)


class ResultCache:
    """Tier-2 on-disk store of finished cells by content-addressed key."""

    def __init__(self, root: Path):
        self.root = Path(root)

    # ------------------------------------------------------------------
    def cell_path(self, key: str) -> Path:
        return self.root / "cells" / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> Optional[CellResult]:
        path = self.cell_path(key)
        payload = checksummed.read(path, CELL_MAGIC)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except _INCOMPATIBLE_PAYLOAD as exc:  # unpicklable despite a valid
            # checksum: the entry was written by an incompatible code
            # version.  Anything else is a bug and propagates.
            checksummed.quarantine(path, f"unpicklable payload ({exc})")
            return None

    def load_bytes(self, key: str) -> Optional[bytes]:
        """Raw stored record; exposed so tests can assert byte identity."""
        try:
            return self.cell_path(key).read_bytes()
        except FileNotFoundError:
            return None

    def store(self, key: str, result: CellResult) -> Path:
        path = self.cell_path(key)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        checksummed.write(path, CELL_MAGIC, payload)
        return path

    # ------------------------------------------------------------------
    def order_path(self, key: str) -> Path:
        return self.root / "orders" / f"{key}.json"

    def load_order(self, key: str) -> Optional[List[str]]:
        path = self.order_path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            checksummed.quarantine(path, f"corrupt order JSON ({exc.msg})")
            return None

    def store_order(self, key: str, order: List[str]) -> None:
        checksummed.atomic_write(
            self.order_path(key), json.dumps(order).encode("utf-8")
        )

    # ------------------------------------------------------------------
    @property
    def records_path(self) -> Path:
        return self.root / "records.jsonl"

    def append_records(self, lines: List[str]) -> None:
        if not lines:
            return
        self.records_path.parent.mkdir(parents=True, exist_ok=True)
        with self.records_path.open("a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
