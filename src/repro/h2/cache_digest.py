"""Cache Digests for HTTP/2 (draft-ietf-httpbis-cache-digest).

The paper notes (§2.1) that H2 has no standard way for a client to tell
the server what it already caches, so servers push resources the client
holds and the RST_STREAM cancel arrives after the bytes are in flight —
pure waste.  It cites the cache-digest draft [29] as the proposed fix.

This module implements that draft's data structure: a Golomb-coded set
(GCS) over truncated SHA-256 hashes of cached URLs.  The client attaches
the digest to its request; the server queries it before pushing.  Like
any Bloom-filter relative, membership tests may yield false positives
(a push wrongly skipped) at probability ~1/P but never false negatives
(a wasted push slips through only if the digest was stale).

Used by the testbed's cache-digest ablation: with digests enabled, the
§2.1 wasted-push pathology disappears.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import math
from typing import Iterable, List

from ..errors import ProtocolError

#: Default false-positive parameter (the draft's P; must be a power of 2).
DEFAULT_P = 2**7


def _hash_url(url: str, n: int, p: int) -> int:
    """The draft's hash: SHA-256 truncated mod N*P."""
    digest = hashlib.sha256(url.encode("utf-8")).digest()
    value = int.from_bytes(digest[:8], "big")
    return value % (n * p)


class _BitWriter:
    def __init__(self):
        self._bits: List[int] = []

    def write_unary(self, quotient: int) -> None:
        self._bits.extend([0] * quotient)
        self._bits.append(1)

    def write_fixed(self, value: int, width: int) -> None:
        for shift in range(width - 1, -1, -1):
            self._bits.append((value >> shift) & 1)

    def to_bytes(self) -> bytes:
        padded = self._bits + [1] * (-len(self._bits) % 8)
        out = bytearray()
        for index in range(0, len(padded), 8):
            byte = 0
            for bit in padded[index : index + 8]:
                byte = (byte << 1) | bit
            out.append(byte)
        return bytes(out)


class _BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def bits_left(self) -> int:
        return len(self._data) * 8 - self._pos

    def read_bit(self) -> int:
        if self._pos >= len(self._data) * 8:
            raise ProtocolError("cache digest truncated")
        byte = self._data[self._pos // 8]
        bit = (byte >> (7 - self._pos % 8)) & 1
        self._pos += 1
        return bit

    def read_unary(self) -> int:
        count = 0
        while self.read_bit() == 0:
            count += 1
        return count

    def read_fixed(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value


class CacheDigest:
    """An immutable Golomb-coded set of cached-URL hashes."""

    def __init__(self, hashes: List[int], n: int, p: int):
        self._hashes = sorted(set(hashes))
        self.n = n
        self.p = p

    # ------------------------------------------------------------------
    @classmethod
    def from_urls(cls, urls: Iterable[str], p: int = DEFAULT_P) -> "CacheDigest":
        """Build a digest over the client's cached URLs."""
        if p < 2 or p & (p - 1):
            raise ProtocolError("cache digest P must be a power of two >= 2")
        url_list = list(urls)
        n = max(_next_power_of_two(len(url_list)), 1)
        hashes = [_hash_url(url, n, p) for url in url_list]
        return cls(hashes, n, p)

    def contains(self, url: str) -> bool:
        """Probabilistic membership: may false-positive at ~1/P."""
        if not self._hashes:
            return False
        return _hash_url(url, self.n, self.p) in self._hash_set

    @property
    def _hash_set(self):
        # Lazily cached set view.
        if not hasattr(self, "_set_cache"):
            self._set_cache = set(self._hashes)
        return self._set_cache

    def __len__(self) -> int:
        return len(self._hashes)

    # ------------------------------------------------------------------
    # wire format: log2(N) : 5 bits | log2(P) : 5 bits | GCS of deltas
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        writer = _BitWriter()
        writer.write_fixed(int(math.log2(self.n)) if self.n > 1 else 0, 5)
        writer.write_fixed(int(math.log2(self.p)), 5)
        previous = -1
        log2_p = int(math.log2(self.p))
        for value in self._hashes:
            delta = value - previous - 1
            writer.write_unary(delta >> log2_p)
            writer.write_fixed(delta & (self.p - 1), log2_p)
            previous = value
        return writer.to_bytes()

    @classmethod
    def decode(cls, data: bytes) -> "CacheDigest":
        reader = _BitReader(data)
        log2_n = reader.read_fixed(5)
        log2_p = reader.read_fixed(5)
        n = 1 << log2_n
        p = 1 << log2_p
        hashes: List[int] = []
        previous = -1
        limit = n * p
        while reader.bits_left > log2_p:
            quotient = reader.read_unary()
            remainder = reader.read_fixed(log2_p)
            delta = (quotient << log2_p) | remainder
            value = previous + 1 + delta
            if value >= limit:
                break  # padding
            hashes.append(value)
            previous = value
        return cls(hashes, n, p)

    # ------------------------------------------------------------------
    def to_header_value(self) -> str:
        """Base64url form for the ``cache-digest`` request header."""
        return base64.urlsafe_b64encode(self.encode()).decode("ascii").rstrip("=")

    @classmethod
    def from_header_value(cls, value: str) -> "CacheDigest":
        """Parse the header form; every malformed input raises
        :class:`ProtocolError` (bad base64 here, a truncated bit stream
        in :meth:`decode`) and nothing else is caught."""
        padding = "=" * (-len(value) % 4)
        try:
            raw = base64.urlsafe_b64decode(value + padding)
        except (binascii.Error, ValueError) as exc:
            raise ProtocolError(f"malformed cache-digest header: {exc}") from exc
        return cls.decode(raw)

    @property
    def wire_size(self) -> int:
        return len(self.encode())


def _next_power_of_two(value: int) -> int:
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()
