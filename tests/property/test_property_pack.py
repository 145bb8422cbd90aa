"""Every frame layout, packed once: ``repro.h2.frames.pack_*`` against
an RFC-layout reference (``tests/support/frame_reference.py``).

Each pack function, and ``Frame.serialize`` built on it, gives the same
bytes as the reference over random fields.  The connection's
header-block path — HEADERS with or without a priority block, and
PUSH_PROMISE — is checked the same way frame by frame, through
``header_block_frames``, the one function that turns the record the
connection queues into frames, including blocks too large for one
frame, which continue in CONTINUATION frames.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.h2 import H2Connection, Settings
from repro.h2.constants import ErrorCode, Flag
from repro.h2.frames import (
    ContinuationFrame,
    DataFrame,
    GoAwayFrame,
    HeaderBlock,
    HeadersFrame,
    PingFrame,
    PriorityData,
    PriorityFrame,
    PushPromiseFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
    header_block_frames,
    pack_continuation,
    pack_data,
    pack_goaway,
    pack_headers,
    pack_ping,
    pack_priority,
    pack_push_promise,
    pack_rst_stream,
    pack_settings,
    pack_window_update,
)
from repro.h2.settings import MAX_FRAME_SIZE
from repro.netsim import DSL_TESTBED, Topology
from repro.sim import Simulator
from tests.support import frame_reference as ref

_STREAM_ID = st.integers(0, 2**32 - 1)  # the R bit must be masked off
_FLAGS = st.integers(0, 255)
_U31 = st.integers(0, 2**31 - 1)
_PRIORITY = st.tuples(_U31, st.integers(1, 256), st.booleans())
_BLOCK = st.binary(max_size=300)
#: Unpadded (``None``) is drawn apart from padded with a zero Pad Length.
_PAD = st.none() | st.integers(0, 255)


def _priority_data(priority):
    depends_on, weight, exclusive = priority
    return PriorityData(depends_on=depends_on, weight=weight, exclusive=exclusive)


@given(_STREAM_ID, _FLAGS, st.binary(max_size=300), _PAD)
def test_data(stream_id, flags, data, pad):
    expected = ref.data(stream_id, flags, data, pad)
    assert pack_data(stream_id, flags, data, pad) == expected
    frame = DataFrame(stream_id=stream_id, flags=Flag(flags), data=data, pad_length=pad)
    assert frame.serialize() == expected
    assert frame.wire_size == len(expected)


@given(_STREAM_ID, _FLAGS, _BLOCK, st.none() | _PRIORITY, _PAD)
def test_headers(stream_id, flags, block, priority, pad):
    expected = ref.headers(stream_id, flags, block, priority, pad)
    data = None if priority is None else _priority_data(priority)
    assert pack_headers(stream_id, flags, block, data, pad) == expected
    frame = HeadersFrame(
        stream_id=stream_id, flags=Flag(flags), header_block=block, priority=data, pad_length=pad
    )
    assert frame.serialize() == expected
    assert frame.wire_size == len(expected)


@given(_STREAM_ID, _FLAGS, _PRIORITY)
def test_priority(stream_id, flags, priority):
    expected = ref.priority_frame(stream_id, flags, priority)
    data = _priority_data(priority)
    assert pack_priority(stream_id, flags, data) == expected
    assert PriorityFrame(stream_id=stream_id, flags=Flag(flags), priority=data).serialize() == expected
    assert data.serialize() == ref.priority_block(priority)


@given(_STREAM_ID, _FLAGS, st.sampled_from(list(ErrorCode)))
def test_rst_stream(stream_id, flags, code):
    expected = ref.rst_stream(stream_id, flags, int(code))
    assert pack_rst_stream(stream_id, flags, code) == expected
    frame = RstStreamFrame(stream_id=stream_id, flags=Flag(flags), error_code=code)
    assert frame.serialize() == expected


@given(_STREAM_ID, _FLAGS, st.dictionaries(st.integers(0, 2**16 - 1), st.integers(0, 2**32 - 1)))
def test_settings(stream_id, flags, values):
    expected = ref.settings(stream_id, flags, values)
    assert pack_settings(stream_id, flags, values) == expected
    frame = SettingsFrame(stream_id=stream_id, flags=Flag(flags), settings=values)
    assert frame.serialize() == expected


@given(_STREAM_ID, _FLAGS, _STREAM_ID, _BLOCK, _PAD)
def test_push_promise(stream_id, flags, promised, block, pad):
    expected = ref.push_promise(stream_id, flags, promised, block, pad)
    assert pack_push_promise(stream_id, flags, promised, block, pad) == expected
    frame = PushPromiseFrame(
        stream_id=stream_id,
        flags=Flag(flags),
        promised_stream_id=promised,
        header_block=block,
        pad_length=pad,
    )
    assert frame.serialize() == expected
    assert frame.wire_size == len(expected)


@given(_STREAM_ID, _FLAGS, st.binary(min_size=8, max_size=8))
def test_ping(stream_id, flags, opaque):
    expected = ref.ping(stream_id, flags, opaque)
    assert pack_ping(stream_id, flags, opaque) == expected
    assert PingFrame(stream_id=stream_id, flags=Flag(flags), opaque=opaque).serialize() == expected


@given(_STREAM_ID, _FLAGS, _STREAM_ID, st.sampled_from(list(ErrorCode)), st.binary(max_size=50))
def test_goaway(stream_id, flags, last, code, debug):
    expected = ref.goaway(stream_id, flags, last, int(code), debug)
    assert pack_goaway(stream_id, flags, last, code, debug) == expected
    frame = GoAwayFrame(
        stream_id=stream_id, flags=Flag(flags), last_stream_id=last, error_code=code,
        debug_data=debug,
    )
    assert frame.serialize() == expected


@given(_STREAM_ID, _FLAGS, st.integers(0, 2**32 - 1))
def test_window_update(stream_id, flags, increment):
    expected = ref.window_update(stream_id, flags, increment)
    assert pack_window_update(stream_id, flags, increment) == expected
    frame = WindowUpdateFrame(stream_id=stream_id, flags=Flag(flags), increment=increment)
    assert frame.serialize() == expected


@given(_STREAM_ID, _FLAGS, _BLOCK)
def test_continuation(stream_id, flags, block):
    expected = ref.continuation(stream_id, flags, block)
    assert pack_continuation(stream_id, flags, block) == expected
    frame = ContinuationFrame(stream_id=stream_id, flags=Flag(flags), header_block=block)
    assert frame.serialize() == expected


@lru_cache(maxsize=None)
def _server_connection() -> H2Connection:
    """One established server endpoint, used only for the record
    ``_queue_header_block`` appends to its control queue."""
    sim = Simulator()
    topo = Topology(sim, DSL_TESTBED)
    topo.add_host("1.1.1.1", ["example.com"])
    topo.prewarm_dns("example.com")
    pair = {}

    def on_conn(tcp):
        pair["server"] = H2Connection(tcp.server, "server")
        pair["client"] = H2Connection(tcp.client, "client", settings=Settings())

    topo.open_connection("example.com", on_conn)
    sim.run()
    return pair["server"]


@settings(max_examples=60, deadline=None)
@given(
    stream_id=st.integers(1, 2**31 - 1),
    end_stream=st.booleans(),
    length=st.one_of(st.integers(0, 200), st.integers(16_370, 3 * 20_000)),
    salt=st.integers(0, 255),
    max_frame_size=st.sampled_from([16_384, 16_385, 20_000]),
    kind=st.sampled_from(["headers", "priority", "push_promise"]),
    priority=_PRIORITY,
    promised=st.integers(2, 2**31 - 2),
)
def test_header_block_frames(
    stream_id, end_stream, length, salt, max_frame_size, kind, priority, promised
):
    """Frame for frame, the wire form of the record the connection
    queues for one header block equals the reference split — one frame
    when the block fits, else a first fragment without END_HEADERS and
    CONTINUATIONs after it — and the record's sizes are those frames'."""
    conn = _server_connection()
    conn.remote_settings.apply({MAX_FRAME_SIZE: max_frame_size})
    block = bytes((index * 7 + salt) & 0xFF for index in range(length))
    flags = ref.END_HEADERS | (1 if end_stream and kind != "push_promise" else 0)
    if kind == "push_promise":
        expected = ref.header_block(stream_id, flags, block, max_frame_size,
                                    promised_stream_id=promised)
        call = dict(headers=[], promised_id=promised)
    elif kind == "priority":
        expected = ref.header_block(stream_id, flags, block, max_frame_size, priority=priority)
        call = dict(headers=[], priority=_priority_data(priority))
    else:
        expected = ref.header_block(stream_id, flags, block, max_frame_size)
        call = dict(headers=[])
    record = _queued_record(conn, stream_id, flags, block, **call)
    assert header_block_frames(record) == expected
    assert list(record.sizes) == [len(wire) for wire in expected]


def _queued_record(conn, *args, **kwargs):
    """The one record ``_queue_header_block`` queues, taken back off the
    queue; it counts each of the record's frames as sent."""
    queue = conn._control_queue
    queued_before, sent_before = len(queue), conn.frames_sent
    conn._queue_header_block(*args, **kwargs)
    assert len(queue) == queued_before + 1
    record = queue.pop()
    assert record.__class__ is HeaderBlock
    assert conn.frames_sent - sent_before == len(record.sizes)
    return record


def _check_oversize_split(length, payloads):
    """A ``length``-octet block with a priority block, under a
    16 384-octet max frame size, goes out as frames of ``payloads``
    octets: HEADERS, then CONTINUATIONs, the last with END_HEADERS."""
    conn = _server_connection()
    conn.remote_settings.apply({MAX_FRAME_SIZE: 16_384})
    block = (bytes(range(256)) * 160)[:length]
    record = _queued_record(conn, 3, ref.END_HEADERS | 1, block, [], PriorityData(weight=32))
    queued = header_block_frames(record)
    expected = ref.header_block(3, ref.END_HEADERS | 1, block, 16_384, priority=(0, 32, False))
    assert queued == expected
    assert list(record.sizes) == [len(wire) for wire in queued]
    assert [len(wire) - 9 for wire in queued] == payloads
    continuations = len(payloads) - 1
    assert [wire[3] for wire in queued] == [ref.HEADERS] + [ref.CONTINUATION] * continuations
    assert [wire[4] for wire in queued] == (
        [ref.PRIORITY_FLAG | 1] + [0] * (continuations - 1) + [ref.END_HEADERS]
    )


def test_an_oversize_block_continues_in_continuation_frames():
    _check_oversize_split(40_960, [16_384, 16_384, 8_197])  # 16 379 + 16 384 + 8 197 octets


def test_a_block_can_fill_its_last_continuation_frame_exactly():
    _check_oversize_split(32_763, [16_384, 16_384])  # 16 379 + 16 384 octets
