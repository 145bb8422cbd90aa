"""Reference Huffman coders: one symbol, one bit at a time.

``repro.h2.hpack.huffman`` encodes through a pair table and decodes
with the canonical-code loop (codes counted per length); these look a
code up by ``(code, length)`` instead, kept as small as the code table
allows so the property suite
(``tests/property/test_property_huffman.py``) has something independent
to compare against: same bytes, same acceptance, same error messages.
"""

from repro.errors import HpackError
from repro.h2.hpack.huffman import _CODES, _ENC_CODE, _ENC_LEN, EOS

#: Maps (code, length) -> symbol.
_DECODE = {(code, length): sym for sym, (code, length) in enumerate(_CODES)}

_MAX_CODE_LENGTH = max(length for _code, length in _CODES)


def huffman_encode_reference(data: bytes) -> bytes:
    """Symbol-at-a-time encoder."""
    bits = 0
    bit_count = 0
    out = bytearray()
    enc_code = _ENC_CODE
    enc_len = _ENC_LEN
    for byte in data:
        length = enc_len[byte]
        bits = (bits << length) | enc_code[byte]
        bit_count += length
        while bit_count >= 8:
            bit_count -= 8
            out.append((bits >> bit_count) & 0xFF)
    if bit_count > 0:
        pad = 8 - bit_count
        bits = (bits << pad) | ((1 << pad) - 1)
        out.append(bits & 0xFF)
    return bytes(out)


def huffman_decode_reference(data: bytes) -> bytes:
    """Bit-at-a-time decoder."""
    out = bytearray()
    code = 0
    length = 0
    for byte in data:
        for bit_index in range(7, -1, -1):
            code = (code << 1) | ((byte >> bit_index) & 1)
            length += 1
            sym = _DECODE.get((code, length))
            if sym is not None:
                if sym == EOS:
                    raise HpackError("EOS symbol decoded inside Huffman string")
                out.append(sym)
                code = 0
                length = 0
            elif length > _MAX_CODE_LENGTH:
                raise HpackError("invalid Huffman code")
    if length >= 8:
        raise HpackError("Huffman padding longer than 7 bits")
    if length > 0 and code != (1 << length) - 1:
        raise HpackError("Huffman padding is not all-one bits")
    return bytes(out)
