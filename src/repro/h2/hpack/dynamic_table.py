"""The HPACK dynamic table (RFC 7541 §2.3.2, §4).

Entries are addressed after the static table: the first dynamic entry
(most recently inserted) has index ``STATIC_TABLE_SIZE + 1``.  Each
entry is charged its name length + value length + 32 octets of
overhead; insertions evict from the oldest end until the configured
maximum size is respected.  The charge is computed once, by whoever
builds the entry (:func:`entry_size`), and rides beside the entry until
eviction subtracts it again.

Lookup design: every insertion gets a monotonically increasing id, and
two dicts map ``(name, value)`` / ``name`` to the *newest* id carrying
them.  An entry's position is ``newest_id - id``, and eviction drops a
mapping together with the entry it points at, so the maps hold live ids
only and a lookup is one probe instead of a scan over the table (which
dominated the encode profile at ~100 live entries).  The encoder's
per-field loop reads the maps directly under exactly these rules;
everything else goes through the methods.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ...errors import HpackError
from .static_table import STATIC_TABLE_SIZE

#: Per-entry bookkeeping overhead defined by the RFC.
ENTRY_OVERHEAD = 32


def entry_size(name: str, value: str) -> int:
    """RFC 7541 §4.1 size of an entry; header strings are ASCII here,
    so one character is one octet and anything else is an error."""
    if not (name.isascii() and value.isascii()):
        raise HpackError(f"non-ASCII header field {name!r}: {value!r}")
    return len(name) + len(value) + ENTRY_OVERHEAD


class DynamicTable:
    """A size-bounded FIFO of (name, value) pairs with RFC accounting."""

    def __init__(self, max_size: int = 4096):
        self._entries: Deque[Tuple[str, str]] = deque()
        #: ``_sizes[i]`` is the charge of ``_entries[i]``.
        self._sizes: Deque[int] = deque()
        self._size = 0
        self._max_size = max_size
        self._protocol_max = max_size
        #: Insertion id of the next entry; ids never repeat.
        self._next_id = 0
        self._exact_ids: Dict[Tuple[str, str], int] = {}
        self._name_ids: Dict[str, int] = {}

    @property
    def size(self) -> int:
        """Current occupancy in RFC octets."""
        return self._size

    @property
    def max_size(self) -> int:
        return self._max_size

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry: Tuple[str, str], size: int) -> None:
        """Insert ``entry`` (a ``(name, value)`` tuple, kept as is) at
        the head, evicting old entries as needed.

        ``size`` is ``entry_size(*entry)``; the codec works it out once
        per distinct field, not per insertion.  Inserting an entry
        larger than the table clears the table (RFC 7541 §4.4) — this
        is legal, not an error.
        """
        max_size = self._max_size
        if self._size + size > max_size:
            self._evict_down_to(max_size - size)
        if size <= max_size:
            entry_id = self._next_id
            self._next_id = entry_id + 1
            self._entries.appendleft(entry)
            self._sizes.appendleft(size)
            self._size += size
            self._exact_ids[entry] = entry_id
            self._name_ids[entry[0]] = entry_id

    def get(self, index: int) -> Tuple[str, str]:
        """Fetch by *absolute* HPACK index (static indices excluded)."""
        position = index - STATIC_TABLE_SIZE - 1
        if position < 0 or position >= len(self._entries):
            raise HpackError(f"dynamic table index {index} out of range")
        return self._entries[position]

    def find(self, name: str, value: str) -> Tuple[Optional[int], Optional[int]]:
        """Return (exact_index, name_index) in absolute HPACK numbering.

        Both refer to the newest (lowest-index) matching entry, exactly
        as a front-to-back scan of the table would return.
        """
        # Index of the newest entry is STATIC_TABLE_SIZE + 1, its id
        # next_id - 1; every older id is one index further.
        head = STATIC_TABLE_SIZE + self._next_id
        exact_id = self._exact_ids.get((name, value))
        name_id = self._name_ids.get(name)
        return (
            None if exact_id is None else head - exact_id,
            None if name_id is None else head - name_id,
        )

    def resize(self, new_max: int) -> None:
        """Apply a dynamic table size update (RFC 7541 §6.3)."""
        if new_max > self._protocol_max:
            raise HpackError(
                f"table size update {new_max} exceeds protocol maximum {self._protocol_max}"
            )
        self._max_size = new_max
        self._evict_down_to(new_max)

    def set_protocol_max(self, value: int) -> None:
        """Record the SETTINGS_HEADER_TABLE_SIZE bound for updates."""
        self._protocol_max = value
        if self._max_size > value:
            self.resize(value)

    def _evict_down_to(self, limit: int) -> None:
        """Drop oldest entries until ``size <= limit`` or none is left."""
        entries = self._entries
        while entries and self._size > limit:
            # The oldest live entry carries the smallest live id.
            evicted_id = self._next_id - len(entries)
            entry = entries.pop()
            self._size -= self._sizes.pop()
            # Drop map entries only if they still point at the evicted
            # entry — a newer duplicate insertion must keep its mapping.
            if self._exact_ids.get(entry) == evicted_id:
                del self._exact_ids[entry]
            name = entry[0]
            if self._name_ids.get(name) == evicted_id:
                del self._name_ids[name]
