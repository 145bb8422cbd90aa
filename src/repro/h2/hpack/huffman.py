"""Huffman string coding for HPACK (RFC 7541 §5.2, Appendix B).

The code table is a canonical Huffman code built at import time from a
byte-frequency profile of HTTP header text.  It is therefore prefix-free
by construction and achieves compression ratios comparable to the RFC
7541 table, but is **not bit-identical** to it — both endpoints of the
testbed share this module, so self-consistency is what matters (see
EXPERIMENTS.md known deviation 8 for this substitution).  Padding follows the RFC: the
remainder of the final octet is filled with the most significant bits
of the EOS symbol (all ones), and decoders reject padding longer than
seven bits or not matching EOS.

The encoder runs on every header block our endpoints send, so it packs
two bytes per step through a pair table.  The decoder is the plain
canonical-code loop, one bit at a time: only a foreign peer's header
block is decoded, and no page load between our own endpoints does.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ...errors import HpackError

#: Symbol 256 is EOS; its prefix pads the final octet.
EOS = 256


def _frequency_profile() -> List[int]:
    """A byte-frequency profile representative of HTTP header text.

    Frequencies are ranked classes rather than measured counts: URL and
    token characters dominate, control bytes are vanishingly rare (they
    still receive codes so any byte string round-trips).
    """
    freq = [1] * 257
    common = "abcdefghijklmnopqrstuvwxyz0123456789-./:=_%?&"
    for ch in common:
        freq[ord(ch)] = 2000
    very_common = "aeiostnrc0123./-"
    for ch in very_common:
        freq[ord(ch)] = 6000
    upper = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    for ch in upper:
        freq[ord(ch)] = 300
    punct = "\"'(),;<>@[]{}~!#$*+^`|"
    for ch in punct:
        freq[ord(ch)] = 60
    freq[ord(" ")] = 400
    freq[EOS] = 1
    return freq


def _build_code_lengths(freq: List[int]) -> List[int]:
    """Standard Huffman construction; returns a code length per symbol."""
    heap: List[Tuple[int, int, Tuple[int, ...]]] = [
        (f, sym, (sym,)) for sym, f in enumerate(freq)
    ]
    heapq.heapify(heap)
    lengths = [0] * len(freq)
    if len(heap) == 1:
        return [1]
    while len(heap) > 1:
        f1, t1, syms1 = heapq.heappop(heap)
        f2, t2, syms2 = heapq.heappop(heap)
        for sym in syms1 + syms2:
            lengths[sym] += 1
        heapq.heappush(heap, (f1 + f2, min(t1, t2), syms1 + syms2))
    return lengths


def _canonical_codes(lengths: List[int]) -> List[Tuple[int, int]]:
    """Assign canonical codes (code, length) from code lengths."""
    symbols = sorted(range(len(lengths)), key=lambda s: (lengths[s], s))
    codes: List[Tuple[int, int]] = [(0, 0)] * len(lengths)
    code = 0
    prev_length = 0
    for sym in symbols:
        length = lengths[sym]
        code <<= length - prev_length
        codes[sym] = (code, length)
        code += 1
        prev_length = length
    return codes


_CODES = _canonical_codes(_build_code_lengths(_frequency_profile()))

#: Flat encode tables: per-symbol code value and bit length.
_ENC_CODE = [code for code, _length in _CODES]
_ENC_LEN = [length for _code, length in _CODES]


#: The decoder's two tables: every symbol in canonical code order
#: (by code length, then by symbol), and how many codes each length has.
#: Codes of one length are consecutive integers, so these two suffice.
_SYMBOLS = sorted(range(len(_CODES)), key=lambda s: (_ENC_LEN[s], s))
_COUNTS = [_ENC_LEN.count(length) for length in range(max(_ENC_LEN) + 1)]


# ----------------------------------------------------------------------
# pair-table encoding
# ----------------------------------------------------------------------
# The encoder consumes input two bytes at a time: for a first byte, a
# lazily built row of 256 entries gives the concatenated (code, length)
# of every (first, second) pair, halving the loop iterations.  Rows are
# lazy because header text touches a small alphabet — most of the 64K
# pair space is never encoded.

#: Lazily built pair rows: _PAIR_ROWS[first][second] = (combined code,
#: combined bit length) of the two symbols back to back.
_PAIR_ROWS: List[Optional[List[Tuple[int, int]]]] = [None] * 256


def _build_pair_row(first: int) -> List[Tuple[int, int]]:
    code1 = _ENC_CODE[first]
    len1 = _ENC_LEN[first]
    row = [
        ((code1 << _ENC_LEN[second]) | _ENC_CODE[second], len1 + _ENC_LEN[second])
        for second in range(256)
    ]
    _PAIR_ROWS[first] = row
    return row


def huffman_encode(data: bytes) -> bytes:
    """Encode ``data``; the result is padded with EOS prefix bits.

    Pair-table encoder; produces exactly the same bytes as the
    symbol-at-a-time implementation it replaced (the property-test
    oracle, ``tests/support/huffman_reference.py``).
    The bit accumulator is masked down after every drain so it stays a
    machine-word int instead of growing into a big integer.
    """
    bits = 0
    bit_count = 0
    out = bytearray()
    pair_rows = _PAIR_ROWS
    end = len(data) - 1
    i = 0
    while i < end:
        row = pair_rows[data[i]]
        if row is None:
            row = _build_pair_row(data[i])
        code, length = row[data[i + 1]]
        i += 2
        bits = (bits << length) | code
        bit_count += length
        while bit_count >= 8:
            bit_count -= 8
            out.append((bits >> bit_count) & 0xFF)
        bits &= (1 << bit_count) - 1
    if i == end:  # odd trailing byte
        byte = data[end]
        length = _ENC_LEN[byte]
        bits = (bits << length) | _ENC_CODE[byte]
        bit_count += length
        while bit_count >= 8:
            bit_count -= 8
            out.append((bits >> bit_count) & 0xFF)
    if bit_count > 0:
        # Pad with all-one bits.  In a complete canonical Huffman code the
        # all-ones pattern of any length shorter than the longest codeword
        # is a proper prefix of that codeword, so <= 7 padding bits can
        # never decode as a symbol (mirrors the RFC's EOS-prefix rule).
        pad = 8 - bit_count
        bits = (bits << pad) | ((1 << pad) - 1)
        out.append(bits & 0xFF)
    return bytes(out)


def huffman_decode(data: bytes) -> bytes:
    """Decode a Huffman-coded string, validating EOS padding.

    A canonical-code decoder that reads one bit at a time.  ``code`` is
    the bits read since the last symbol, ``first`` the first code of
    their length and ``index`` that code's place in ``_SYMBOLS``.  The
    code is complete, so every bit string is a symbol or a prefix of
    one, and what is left at the end is padding.
    """
    out = bytearray()
    code = first = index = length = 0
    for byte in data:
        for shift in range(7, -1, -1):
            code = (code << 1) | ((byte >> shift) & 1)
            length += 1
            count = _COUNTS[length]
            if code - first < count:
                symbol = _SYMBOLS[index + code - first]
                if symbol == EOS:
                    raise HpackError("EOS symbol decoded inside Huffman string")
                out.append(symbol)
                code = first = index = length = 0
            else:
                index += count
                first = (first + count) << 1
    if length >= 8:
        raise HpackError("Huffman padding longer than 7 bits")
    if length > 0 and code != (1 << length) - 1:
        raise HpackError("Huffman padding is not all-one bits")
    return bytes(out)


def huffman_encoded_length(data: bytes) -> int:
    """Length in octets of the Huffman encoding of ``data``."""
    enc_len = _ENC_LEN
    bits = 0
    for byte in data:
        bits += enc_len[byte]
    return (bits + 7) // 8
