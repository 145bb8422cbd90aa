"""Browser HTTP cache model.

The cache matters for push in one specific way the paper highlights
(§2.1): H2 has no standard cache-digest signal, so a server pushes a
resource the client already holds, the client cancels with RST_STREAM,
and the bytes are frequently already in flight — wasted bandwidth.  The
cache ablation benchmark exercises exactly this path.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..span import Body


class BrowserCache:
    """A URL-keyed cache storing complete response bodies."""

    def __init__(self):
        self._entries: Dict[str, Body] = {}
        self.hits = 0
        self.misses = 0

    def __contains__(self, url: str) -> bool:
        return url in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def store(self, url: str, body: Body) -> None:
        self._entries[url] = body

    def lookup(self, url: str) -> Optional[Body]:
        """Return the cached body, counting hit/miss statistics."""
        body = self._entries.get(url)
        if body is None:
            self.misses += 1
        else:
            self.hits += 1
        return body

    def size_of(self, url: str) -> int:
        return len(self._entries[url])

    def urls(self) -> Set[str]:
        return set(self._entries)

    def clear(self) -> None:
        self._entries.clear()
