"""Property-based tests for the frame codec."""

import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.h2.constants import CONNECTION_PREFACE, ErrorCode, Flag
from repro.h2.frames import (
    DataFrame,
    Frame,
    FrameReader,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    PriorityData,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
)

_STREAM_ID = st.integers(min_value=1, max_value=2**31 - 1)


@given(stream_id=_STREAM_ID, data=st.binary(max_size=2000), pad=st.integers(0, 255))
def test_data_frame_round_trip(stream_id, data, pad):
    frame = DataFrame(stream_id=stream_id, data=data, pad_length=pad)
    reader = FrameReader()
    (parsed,) = reader.feed(frame.serialize())
    assert parsed.stream_id == stream_id
    assert parsed.data == data
    assert reader.buffered_bytes == 0


@given(
    stream_id=_STREAM_ID,
    depends_on=st.integers(0, 2**31 - 1),
    weight=st.integers(1, 256),
    exclusive=st.booleans(),
)
def test_priority_data_round_trip(stream_id, depends_on, weight, exclusive):
    original = PriorityData(depends_on=depends_on, weight=weight, exclusive=exclusive)
    assert PriorityData.parse(original.serialize()) == original


@given(settings_map=st.dictionaries(st.integers(1, 6), st.integers(0, 2**31 - 1), max_size=6))
def test_settings_round_trip(settings_map):
    frame = SettingsFrame(stream_id=0, settings=settings_map)
    (parsed,) = FrameReader().feed(frame.serialize())
    assert parsed.settings == settings_map


@given(increment=st.integers(1, 2**31 - 1))
def test_window_update_round_trip(increment):
    frame = WindowUpdateFrame(stream_id=0, increment=increment)
    (parsed,) = FrameReader().feed(frame.serialize())
    assert parsed.increment == increment


@given(
    frames_spec=st.lists(
        st.tuples(_STREAM_ID, st.binary(max_size=500)), min_size=1, max_size=10
    ),
    chunk=st.integers(1, 64),
)
@settings(max_examples=40)
def test_reader_reassembles_any_chunking(frames_spec, chunk):
    """Feeding a frame stream in arbitrary chunks loses nothing."""
    frames = [DataFrame(stream_id=sid, data=data) for sid, data in frames_spec]
    wire = b"".join(frame.serialize() for frame in frames)
    reader = FrameReader()
    parsed = []
    for index in range(0, len(wire), chunk):
        parsed.extend(reader.feed(wire[index : index + chunk]))
    assert [(f.stream_id, f.data) for f in parsed] == frames_spec
    assert reader.buffered_bytes == 0


@given(opaque=st.binary(min_size=8, max_size=8))
def test_ping_round_trip(opaque):
    (parsed,) = FrameReader().feed(PingFrame(stream_id=0, opaque=opaque).serialize())
    assert parsed.opaque == opaque


@given(last=st.integers(0, 2**31 - 1), debug=st.binary(max_size=100))
def test_goaway_round_trip(last, debug):
    frame = GoAwayFrame(
        stream_id=0, last_stream_id=last, error_code=ErrorCode.NO_ERROR, debug_data=debug
    )
    (parsed,) = FrameReader().feed(frame.serialize())
    assert parsed.last_stream_id == last
    assert parsed.debug_data == debug


def _raw_frame(frame_type: int, flags: int, stream_id: int, body: bytes) -> bytes:
    """A frame header with an honest length over an arbitrary body."""
    return struct.pack(">IBI", (len(body) << 8) | frame_type, flags, stream_id) + body


# Frames of every type (and unknown ones) with any flags and any body,
# so the type-specific parsers see malformed payloads, not only
# truncated headers; a tail of raw bytes covers the rest.
_RAW_FRAMES = st.lists(
    st.builds(
        _raw_frame,
        st.integers(0, 12),
        st.integers(0, 255),
        st.integers(0, 2**32 - 1),
        st.binary(max_size=24),
    ),
    max_size=6,
)

# PADDED (0x8) HEADERS and PUSH_PROMISE with an empty payload: no pad
# length octet to read.
_EMPTY_PADDED_HEADERS = _raw_frame(0x1, 0x8, 1, b"")
_EMPTY_PADDED_PUSH_PROMISE = _raw_frame(0x5, 0x8, 1, b"")


@settings(max_examples=300, deadline=None)
@given(
    frames=_RAW_FRAMES,
    tail=st.binary(max_size=30),
    cuts=st.lists(st.integers(0, 400), max_size=6),
    preface=st.booleans(),
)
@example(frames=[_EMPTY_PADDED_HEADERS], tail=b"", cuts=[], preface=False)
@example(frames=[_EMPTY_PADDED_PUSH_PROMISE], tail=b"", cuts=[], preface=False)
@example(frames=[_EMPTY_PADDED_HEADERS], tail=b"", cuts=[3, 9], preface=True)
def test_reader_returns_frames_or_raises_protocol_error(frames, tail, cuts, preface):
    """Over arbitrary bytes in arbitrary chunks, ``feed`` returns frames
    or raises ``ProtocolError`` — never any other exception."""
    wire = (CONNECTION_PREFACE if preface else b"") + b"".join(frames) + tail
    bounds = [0] + sorted({cut for cut in cuts if cut < len(wire)}) + [len(wire)]
    reader = FrameReader(expect_preface=preface)
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            for frame in reader.feed(wire[lo:hi]):
                assert isinstance(frame, Frame)
    except ProtocolError:
        pass


def test_empty_padded_header_frames_are_protocol_errors():
    for wire in (_EMPTY_PADDED_HEADERS, _EMPTY_PADDED_PUSH_PROMISE):
        try:
            FrameReader().feed(wire)
        except ProtocolError as exc:
            assert "pad length" in str(exc)
        else:
            raise AssertionError("an empty PADDED frame parsed")
