"""Property-based tests for HPACK (round-trips and invariants).

The codec's hot path works from memoised *field plans* and reads the
dynamic table's internals; the differential suites below hold it to the
per-field reference codec in ``tests/support/hpack_reference.py``:
byte-identical blocks, identical headers and errors, and identical
table contents and ``size`` after every block.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HpackError
from repro.h2.hpack import (
    DynamicTable,
    HpackDecoder,
    HpackEncoder,
    decode_integer,
    encode_integer,
    huffman_decode,
    huffman_encode,
    huffman_encoded_length,
)
from repro.h2.hpack.dynamic_table import entry_size
from tests.support.hpack_reference import ReferenceHpackDecoder, ReferenceHpackEncoder

_TOKEN = st.text(alphabet=string.ascii_lowercase + string.digits + "-", min_size=1, max_size=24)
_VALUE = st.text(
    alphabet=string.ascii_letters + string.digits + " /.:;=%-_?&",
    min_size=0,
    max_size=60,
)
_HEADERS = st.lists(st.tuples(_TOKEN, _VALUE), min_size=1, max_size=20)


@given(value=st.integers(min_value=0, max_value=2**40), prefix=st.integers(1, 8))
def test_integer_round_trip(value, prefix):
    wire = encode_integer(value, prefix)
    decoded, consumed = decode_integer(wire, 0, prefix)
    assert decoded == value
    assert consumed == len(wire)


@given(value=st.integers(0, 2**30), prefix=st.integers(1, 8), pad=st.binary(max_size=8))
def test_integer_decoding_ignores_trailing_bytes(value, prefix, pad):
    wire = encode_integer(value, prefix)
    decoded, consumed = decode_integer(wire + pad, 0, prefix)
    assert decoded == value
    assert consumed == len(wire)


@given(data=st.binary(max_size=300))
def test_huffman_round_trip(data):
    assert huffman_decode(huffman_encode(data)) == data


@given(data=st.binary(max_size=300))
def test_huffman_length_prediction(data):
    assert huffman_encoded_length(data) == len(huffman_encode(data))


@given(headers=_HEADERS)
@settings(max_examples=60)
def test_codec_round_trip_single_block(headers):
    encoder, decoder = HpackEncoder(), HpackDecoder()
    assert decoder.decode(encoder.encode(headers)) == headers


@given(blocks=st.lists(_HEADERS, min_size=1, max_size=6))
@settings(max_examples=30)
def test_codec_round_trip_block_sequence(blocks):
    """Encoder and decoder dynamic tables stay synchronized."""
    encoder, decoder = HpackEncoder(), HpackDecoder()
    for headers in blocks:
        assert decoder.decode(encoder.encode(headers)) == headers
    assert decoder.table.size == encoder.table.size


@given(
    entries=st.lists(st.tuples(_TOKEN, _VALUE), max_size=40),
    max_size=st.integers(min_value=0, max_value=500),
)
def test_dynamic_table_never_exceeds_max(entries, max_size):
    table = DynamicTable(max_size=max_size)
    for name, value in entries:
        table.add((name, value), entry_size(name, value))
        assert table.size <= max_size
        assert table.size == sum(
            entry_size(n, v) for n, v in (table.get(62 + i) for i in range(len(table)))
        )


# ----------------------------------------------------------------------
# differential: the planned codec against the per-field reference
# ----------------------------------------------------------------------
#: Few names and values, so fields repeat within and across blocks and
#: hit the static table (exact and name-only), the dynamic table and the
#: plan memo in every combination; mixed case must lower to one entry.
_POOL_NAMES = st.sampled_from(
    [":method", ":path", ":status", "content-type", "Content-Type", "cookie",
     "Cookie", "x-custom", "X-Custom", "x-trace-id", "etag"]
)
_POOL_VALUES = st.sampled_from(
    ["GET", "200", "/", "/index.html", "text/html", "", "1", "2", "secret=1",
     "v" * 70, "w" * 300]
)
#: Fields a warm-up block inserts in order before the steps.  300 of
#: them fit a 16 384-octet table, so the oldest sit past 127 and past
#: 255 live entries, and a block that sends them again takes indices of
#: one, two and three octets.  In the small tables they only churn.
_FILLER = [("x-fill", str(index)) for index in range(300)]
#: How many of them: none, or enough that the oldest pass 127 or 255.
_FILL = st.sampled_from([0, 100, 200, len(_FILLER)])
_RESEND = st.lists(st.sampled_from(_FILLER), max_size=6)
_FIELD = st.tuples(_POOL_NAMES | _TOKEN, _POOL_VALUES | _VALUE)
#: Pairs arrive as tuples or lists; the memo is keyed by the tuple.
_PAIR = st.builds(lambda pair, as_list: list(pair) if as_list else pair, _FIELD, st.booleans())
_BLOCK = st.tuples(
    st.just("block"),
    st.lists(_PAIR, min_size=1, max_size=12),
    st.lists(st.sampled_from(["cookie", "Cookie", "x-custom", "x-trace-id"]), max_size=2),
)
_RESIZE = st.tuples(st.just("resize"), st.sampled_from([0, 33, 64, 100, 256, 4096]))
#: 0: nothing fits; 40/70: every insert evicts (or clears); 200: a few
#: entries; the 300-octet value is larger than all but the two largest;
#: 16 384 holds the whole filler.
_TABLE_SIZES = st.sampled_from([0, 40, 70, 200, 4096, 16_384])


def table_state(table):
    """Everything observable about a dynamic table."""
    entries = [table.get(62 + position) for position in range(len(table))]
    assert table.size == sum(entry_size(name, value) for name, value in entries)
    lookups = [table.find(name, value) for name, value in entries]
    return entries, lookups, table.size, table.max_size


@given(
    table_size=_TABLE_SIZES,
    fill=_FILL,
    resend=_RESEND,
    steps=st.lists(_BLOCK | _RESIZE, min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_encoder_matches_reference_block_for_block(table_size, fill, resend, steps):
    encoder, reference = HpackEncoder(table_size), ReferenceHpackEncoder(table_size)
    decoder = HpackDecoder(table_size)
    if fill:
        steps = [("block", _FILLER[:fill], []), ("block", resend, [])] + steps
    for step in steps:
        if step[0] == "resize":
            encoder.set_max_table_size(step[1])
            reference.set_max_table_size(step[1])
            continue
        _, headers, sensitive = step
        block = encoder.encode(headers, sensitive)
        assert block == reference.encode(headers, sensitive)
        assert table_state(encoder.table) == table_state(reference.table)
        assert decoder.decode(block) == [(name.lower(), value) for name, value in headers]
        assert table_state(decoder.table) == table_state(encoder.table)


def _outcome(decoder, data):
    try:
        return decoder.decode(data)
    except HpackError as error:
        return str(error)


@given(
    table_size=_TABLE_SIZES,
    fill=_FILL,
    warm_up=st.lists(st.lists(_FIELD, min_size=1, max_size=12), max_size=8),
    blocks=st.lists(st.binary(max_size=48), min_size=1, max_size=4),
)
@settings(max_examples=500, deadline=None)
def test_decoder_fuzz_matches_reference(table_size, fill, warm_up, blocks):
    """Arbitrary bytes yield a header list or ``HpackError`` — anything
    else propagates and fails — and exactly the reference's of either."""
    encoder = HpackEncoder(table_size)
    decoder, reference = HpackDecoder(table_size), ReferenceHpackDecoder(table_size)
    if fill:
        warm_up = [_FILLER[:fill]] + warm_up
    for headers in warm_up:  # give indices something to point at
        block = encoder.encode(headers)
        assert decoder.decode(block) == reference.decode(block)
    for data in blocks:
        assert _outcome(decoder, data) == _outcome(reference, data)
        assert table_state(decoder.table) == table_state(reference.table)


@given(
    headers=st.lists(_FIELD, min_size=1, max_size=12),
    cut=st.integers(min_value=0, max_value=400),
    flip=st.integers(min_value=0, max_value=400 * 8),
)
@settings(max_examples=300, deadline=None)
def test_decoder_on_damaged_valid_blocks_matches_reference(headers, cut, flip):
    """Truncations and bit flips of real blocks reach further into the
    string and index paths than uniform noise does."""
    block = bytearray(HpackEncoder().encode(headers))
    block[(flip // 8) % len(block)] ^= 1 << (flip % 8)
    data = bytes(block[: cut % (len(block) + 1)])
    decoder, reference = HpackDecoder(), ReferenceHpackDecoder()
    assert _outcome(decoder, data) == _outcome(reference, data)
    assert table_state(decoder.table) == table_state(reference.table)


@given(
    entries=st.lists(st.tuples(_POOL_NAMES | _TOKEN, _POOL_VALUES), max_size=40),
    max_size=st.sampled_from([0, 40, 70, 200, 4096]),
    shrink_to=st.integers(min_value=0, max_value=200),
)
def test_find_is_a_front_to_back_scan(entries, max_size, shrink_to):
    """The id maps hold live entries only: after any adds, evictions
    and a resize, ``find`` answers as a scan of the table would."""
    table = DynamicTable(max_size=max_size)
    for step, (name, value) in enumerate(entries):
        table.add((name, value), entry_size(name, value))
        if step == len(entries) // 2:
            table.resize(min(shrink_to, max_size))
    live = [table.get(62 + position) for position in range(len(table))]
    for name, value in set(entries):
        exact = next((62 + i for i, entry in enumerate(live) if entry == (name, value)), None)
        name_only = next((62 + i for i, entry in enumerate(live) if entry[0] == name), None)
        assert table.find(name, value) == (exact, name_only)


def test_plan_memo_is_bounded_and_clears_on_overflow(monkeypatch):
    from repro.h2.hpack import encoder as encoder_module

    monkeypatch.setattr(encoder_module, "_FIELD_PLANS", {})
    monkeypatch.setattr(encoder_module, "_FIELD_PLANS_MAX", 5)
    encoder, reference = HpackEncoder(200), ReferenceHpackEncoder(200)
    for index in range(40):
        headers = [(":path", f"/{index % 7}"), ("x-n", str(index)), ("x-n", str(index // 2))]
        assert encoder.encode(headers) == reference.encode(headers)
        assert table_state(encoder.table) == table_state(reference.table)
        assert len(encoder_module._FIELD_PLANS) <= 5
