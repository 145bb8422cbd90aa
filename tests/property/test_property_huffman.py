"""Property-based tests for the Huffman coder.

The pair-table encoder (``huffman_encode``) must produce the bytes of
the symbol-at-a-time reference encoder, and the canonical-code decoder
(``huffman_decode``) must be observationally identical to the
bit-at-a-time reference decoder (``huffman_decode_reference``): same
output on valid input, same acceptance/rejection on arbitrary input,
same error messages.  Both decoders read one bit at a time, one by
counting codes per length and one by a (code, length) lookup, so the
decoder's independent checks are also RFC 7541 Appendix C, the encode →
decode round trip, the conformance peer and the fuzz gate.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HpackError
from repro.h2.hpack.huffman import (
    huffman_decode,
    huffman_encode,
    huffman_encoded_length,
)
from tests.support.huffman_reference import (
    huffman_decode_reference,
    huffman_encode_reference,
)


@given(data=st.binary(max_size=2048))
def test_round_trip_identity(data):
    assert huffman_decode(huffman_encode(data)) == data


@given(data=st.binary(max_size=2048))
def test_fast_encoder_equals_reference(data):
    """The pair-table encoder must be byte-identical to the
    symbol-at-a-time reference on arbitrary input — same codes, same
    packing, same all-ones padding."""
    assert huffman_encode(data) == huffman_encode_reference(data)


@given(data=st.binary(min_size=1, max_size=64))
def test_fast_encoder_equals_reference_on_odd_lengths(data):
    """The pair loop handles a trailing odd byte separately; exercise
    both parities explicitly."""
    assert huffman_encode(data[:-1]) == huffman_encode_reference(data[:-1])
    assert huffman_encode(data) == huffman_encode_reference(data)


@given(
    text=st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=512
    )
)
def test_fast_encoder_equals_reference_on_header_text(text):
    """Header-like ASCII hits the short-code rows of the pair table."""
    data = text.encode("ascii")
    assert huffman_encode(data) == huffman_encode_reference(data)


@given(data=st.binary(max_size=2048))
def test_encoded_length_matches_encode(data):
    assert huffman_encoded_length(data) == len(huffman_encode(data))


@given(data=st.binary(max_size=512))
def test_fast_decoder_equals_reference_on_valid_input(data):
    encoded = huffman_encode(data)
    assert huffman_decode(encoded) == huffman_decode_reference(encoded)


@given(blob=st.binary(max_size=512))
def test_fast_decoder_equals_reference_on_arbitrary_bytes(blob):
    """On *any* byte string the two decoders agree: both return the
    same output or both raise an HpackError with the same message."""
    try:
        expected = ("ok", huffman_decode_reference(blob))
    except HpackError as exc:
        expected = ("err", str(exc))
    try:
        actual = ("ok", huffman_decode(blob))
    except HpackError as exc:
        actual = ("err", str(exc))
    assert actual == expected


@given(data=st.binary(min_size=1, max_size=256), flip=st.integers(0, 7))
def test_bad_padding_rejected(data, flip):
    """Zeroing a padding bit must make the string invalid (or, when the
    truncated final octet still parses as symbols, both decoders must
    still agree — covered above); the common case raises."""
    encoded = bytearray(huffman_encode(data))
    pad_bits = 8 * len(encoded) - _bit_length(data)
    if pad_bits == 0:
        return  # no padding in this example
    bit = flip % pad_bits
    encoded[-1] ^= 1 << bit  # clear/flip one of the all-ones padding bits
    try:
        huffman_decode(bytes(encoded))
        decoded_ref = huffman_decode_reference(bytes(encoded))
        decoded_fast = huffman_decode(bytes(encoded))
        assert decoded_fast == decoded_ref
    except HpackError:
        with pytest.raises(HpackError):
            huffman_decode_reference(bytes(encoded))


def _bit_length(data: bytes) -> int:
    from repro.h2.hpack.huffman import _ENC_LEN

    return sum(_ENC_LEN[b] for b in data)


def test_padding_longer_than_seven_bits_rejected():
    encoded = huffman_encode(b"a") + b"\xff"
    with pytest.raises(HpackError, match="padding longer than 7 bits"):
        huffman_decode(encoded)
    with pytest.raises(HpackError, match="padding longer than 7 bits"):
        huffman_decode_reference(encoded)


def test_empty_string_round_trips():
    assert huffman_encode(b"") == b""
    assert huffman_decode(b"") == b""
    assert huffman_decode_reference(b"") == b""
