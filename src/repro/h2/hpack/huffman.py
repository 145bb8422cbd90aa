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


# ----------------------------------------------------------------------
# byte-wise decoding state machine
# ----------------------------------------------------------------------
# The decoder walks a binary trie of the canonical code, one input BYTE
# at a time: for every (trie node, byte) pair a precomputed row entry
# gives the node reached after those eight bits plus every symbol
# emitted along the way.  Rows are built lazily (most of the trie's
# interior is never parked on at a byte boundary), giving amortized
# O(1) dict-free work per input byte instead of per input *bit*.


def _build_trie() -> List[List[int]]:
    """Binary trie of ``_CODES``: ``children[node][bit]`` is the next
    node index, or ``-(symbol + 1)`` at a leaf.  Node 0 is the root."""
    children: List[List[int]] = [[0, 0]]
    for sym, (code, length) in enumerate(_CODES):
        node = 0
        for i in range(length - 1, 0, -1):
            bit = (code >> i) & 1
            nxt = children[node][bit]
            if nxt == 0:
                children.append([0, 0])
                nxt = len(children) - 1
                children[node][bit] = nxt
            node = nxt
        children[node][code & 1] = -(sym + 1)
    return children


_CHILDREN = _build_trie()


def _node_paths() -> Tuple[List[int], List[bool]]:
    """Per-node bit depth from the root and whether that path is all
    one-bits — the two facts EOS-padding validation needs."""
    depth = [0] * len(_CHILDREN)
    all_ones = [False] * len(_CHILDREN)
    all_ones[0] = True
    stack = [0]
    while stack:
        node = stack.pop()
        for bit in (0, 1):
            nxt = _CHILDREN[node][bit]
            if nxt > 0:
                depth[nxt] = depth[node] + 1
                all_ones[nxt] = all_ones[node] and bit == 1
                stack.append(nxt)
    return depth, all_ones


_DEPTH, _ALL_ONES = _node_paths()

#: Lazily built transition rows: _ROWS[node][byte] = (next_node,
#: emitted_bytes), or None when the byte decodes the EOS symbol.
_ROWS: List[Optional[List[Optional[Tuple[int, bytes]]]]] = [None] * len(_CHILDREN)


def _build_row(state: int) -> List[Optional[Tuple[int, bytes]]]:
    children = _CHILDREN
    row: List[Optional[Tuple[int, bytes]]] = []
    for byte in range(256):
        node = state
        emitted = bytearray()
        valid = True
        for i in range(7, -1, -1):
            node = children[node][(byte >> i) & 1]
            if node < 0:
                sym = -node - 1
                if sym == EOS:
                    valid = False
                    break
                emitted.append(sym)
                node = 0
        row.append((node, bytes(emitted)) if valid else None)
    _ROWS[state] = row
    return row


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

    Byte-wise table decoder; produces exactly the same output and
    errors as the bit-at-a-time implementation it replaced (the
    property-test oracle, ``tests/support/huffman_reference.py``).
    """
    state = 0
    rows = _ROWS
    chunks: List[bytes] = []
    for byte in data:
        row = rows[state]
        if row is None:
            row = _build_row(state)
        entry = row[byte]
        if entry is None:
            raise HpackError("EOS symbol decoded inside Huffman string")
        state, emitted = entry
        if emitted:
            chunks.append(emitted)
    depth = _DEPTH[state]
    if depth >= 8:
        raise HpackError("Huffman padding longer than 7 bits")
    if depth > 0 and not _ALL_ONES[state]:
        raise HpackError("Huffman padding is not all-one bits")
    return b"".join(chunks)


def huffman_encoded_length(data: bytes) -> int:
    """Length in octets of the Huffman encoding of ``data``."""
    enc_len = _ENC_LEN
    bits = 0
    for byte in data:
        bits += enc_len[byte]
    return (bits + 7) // 8
