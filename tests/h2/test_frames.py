"""Tests for HTTP/2 frame serialization and parsing."""

import dataclasses
import inspect
import struct

import pytest

from repro.errors import ProtocolError
from repro.h2 import (
    CONNECTION_PREFACE,
    ContinuationFrame,
    DataFrame,
    ErrorCode,
    Flag,
    Frame,
    FrameReader,
    FrameType,
    GoAwayFrame,
    HeadersFrame,
    PingFrame,
    PriorityData,
    PriorityFrame,
    PushPromiseFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
)
from repro.h2.frames import _PARSERS
from tests.support import frame_reference as ref


def round_trip(frame):
    """The one frame a fresh reader parses from ``frame``'s octets,
    which it consumes whole."""
    reader = FrameReader()
    (parsed,) = reader.feed(frame.serialize())
    assert reader.buffered_bytes == 0
    return parsed


class TestDataFrame:
    def test_round_trip(self):
        frame = round_trip(DataFrame(stream_id=5, data=b"payload"))
        assert frame.stream_id == 5
        assert frame.data == b"payload"
        assert not frame.flags & Flag.END_STREAM

    def test_end_stream_flag(self):
        frame = round_trip(DataFrame(stream_id=1, flags=Flag.END_STREAM, data=b"x"))
        assert frame.flags & Flag.END_STREAM

    def test_padding_round_trip(self):
        frame = round_trip(DataFrame(stream_id=1, data=b"abc", pad_length=10))
        assert frame.data == b"abc"
        assert frame.pad_length == 10

    def test_padding_charged_on_wire(self):
        plain = DataFrame(stream_id=1, data=b"abc")
        padded = DataFrame(stream_id=1, data=b"abc", pad_length=10)
        assert len(padded.serialize()) == len(plain.serialize()) + 11

    def test_invalid_padding_rejected(self):
        # pad length >= payload length is a protocol error.
        wire = bytearray(DataFrame(stream_id=1, data=b"ab", pad_length=1).serialize())
        wire[9] = 200  # corrupt the pad-length octet
        with pytest.raises(ProtocolError):
            FrameReader().feed(bytes(wire))

    def test_wire_size(self):
        frame = DataFrame(stream_id=1, data=b"x" * 100)
        assert frame.wire_size == 109

    def test_padded_flag_follows_the_payload(self):
        # A PADDED flag with no Pad Length is dropped, not packed.
        frame = round_trip(DataFrame(stream_id=1, flags=Flag.PADDED, data=b"abc"))
        assert frame.data == b"abc"
        assert frame.pad_length is None
        assert not frame.flags & Flag.PADDED


class TestHeadersFrame:
    def test_round_trip(self):
        frame = round_trip(
            HeadersFrame(stream_id=3, flags=Flag.END_HEADERS, header_block=b"\x82\x87")
        )
        assert frame.header_block == b"\x82\x87"
        assert frame.flags & Flag.END_HEADERS

    def test_priority_block(self):
        frame = round_trip(
            HeadersFrame(
                stream_id=3,
                flags=Flag.END_HEADERS,
                header_block=b"\x82",
                priority=PriorityData(depends_on=1, weight=220, exclusive=True),
            )
        )
        assert frame.priority.depends_on == 1
        assert frame.priority.weight == 220
        assert frame.priority.exclusive

    def test_priority_flag_follows_the_payload(self):
        # A PRIORITY flag with no priority block must not make the first
        # five octets of the header block read as one.
        frame = round_trip(
            HeadersFrame(
                stream_id=3, flags=Flag.PRIORITY | Flag.END_HEADERS, header_block=b"abcdefgh"
            )
        )
        assert frame.header_block == b"abcdefgh"
        assert frame.priority is None
        assert frame.flags == Flag.END_HEADERS


class TestPriorityData:
    def test_weight_encoding_is_minus_one_on_wire(self):
        # RFC 7540 §6.3: wire weight is value - 1.
        data = PriorityData(depends_on=0, weight=256)
        assert data.serialize()[-1] == 255

    def test_round_trip_all_fields(self):
        wire = PriorityData(depends_on=7, weight=1, exclusive=True).serialize()
        parsed = PriorityData.parse(wire)
        assert parsed == PriorityData(depends_on=7, weight=1, exclusive=True)


class TestControlFrames:
    def test_priority_frame(self):
        frame = round_trip(
            PriorityFrame(stream_id=9, priority=PriorityData(depends_on=1, weight=16))
        )
        assert frame.priority.depends_on == 1

    def test_priority_frame_on_stream_zero_rejected(self):
        # §6.3: PRIORITY on stream 0 is a connection error.
        wire = ref.priority_frame(0, 0, (3, 16, False))
        with pytest.raises(ProtocolError) as excinfo:
            FrameReader().feed(wire)
        assert excinfo.value.error_code == ErrorCode.PROTOCOL_ERROR

    def test_rst_stream(self):
        frame = round_trip(RstStreamFrame(stream_id=2, error_code=ErrorCode.CANCEL))
        assert frame.error_code == ErrorCode.CANCEL

    def test_settings_round_trip(self):
        frame = round_trip(SettingsFrame(stream_id=0, settings={2: 0, 4: 1 << 20}))
        assert frame.settings == {2: 0, 4: 1 << 20}
        assert not frame.flags & Flag.ACK

    def test_settings_ack(self):
        frame = round_trip(SettingsFrame(stream_id=0, flags=Flag.ACK))
        assert frame.flags & Flag.ACK

    def test_settings_on_stream_rejected(self):
        wire = SettingsFrame(stream_id=0, settings={1: 1}).serialize()
        corrupted = wire[:5] + b"\x00\x00\x00\x03" + wire[9:]
        with pytest.raises(ProtocolError):
            FrameReader().feed(corrupted)

    def test_push_promise(self):
        frame = round_trip(
            PushPromiseFrame(
                stream_id=1,
                flags=Flag.END_HEADERS,
                promised_stream_id=4,
                header_block=b"\x82",
            )
        )
        assert frame.promised_stream_id == 4
        assert frame.header_block == b"\x82"

    def test_ping_round_trip(self):
        frame = round_trip(PingFrame(stream_id=0, opaque=b"abcdefgh"))
        assert frame.opaque == b"abcdefgh"

    def test_ping_requires_8_octets(self):
        with pytest.raises(ProtocolError):
            PingFrame(stream_id=0, opaque=b"short").serialize()

    def test_goaway(self):
        frame = round_trip(
            GoAwayFrame(
                stream_id=0,
                last_stream_id=11,
                error_code=ErrorCode.ENHANCE_YOUR_CALM,
                debug_data=b"calm down",
            )
        )
        assert frame.last_stream_id == 11
        assert frame.error_code == ErrorCode.ENHANCE_YOUR_CALM
        assert frame.debug_data == b"calm down"

    def test_goaway_on_a_stream_rejected(self):
        # §6.8: GOAWAY on a stream other than 0 is a connection error.
        wire = ref.goaway(1, 0, 0, 0, b"")
        with pytest.raises(ProtocolError) as excinfo:
            FrameReader().feed(wire)
        assert excinfo.value.error_code == ErrorCode.PROTOCOL_ERROR

    def test_window_update(self):
        frame = round_trip(WindowUpdateFrame(stream_id=0, increment=65_535))
        assert frame.increment == 65_535

    def test_window_update_zero_increment_rejected(self):
        wire = WindowUpdateFrame(stream_id=0, increment=1).serialize()
        corrupted = wire[:9] + b"\x00\x00\x00\x00"
        with pytest.raises(ProtocolError):
            FrameReader().feed(corrupted)

    def test_continuation(self):
        frame = round_trip(
            ContinuationFrame(stream_id=3, flags=Flag.END_HEADERS, header_block=b"zz")
        )
        assert frame.header_block == b"zz"
        assert frame.flags & Flag.END_HEADERS


class TestFrameReader:
    def test_incremental_feeding(self):
        frames = [
            DataFrame(stream_id=1, data=b"a" * 300),
            RstStreamFrame(stream_id=1, error_code=ErrorCode.NO_ERROR),
            PingFrame(stream_id=0),
        ]
        wire = b"".join(frame.serialize() for frame in frames)
        reader = FrameReader()
        parsed = []
        for index in range(len(wire)):
            parsed.extend(reader.feed(wire[index : index + 1]))
        assert len(parsed) == 3
        assert isinstance(parsed[0], DataFrame)
        assert isinstance(parsed[1], RstStreamFrame)
        assert isinstance(parsed[2], PingFrame)

    def test_preface_consumed(self):
        reader = FrameReader(expect_preface=True)
        wire = CONNECTION_PREFACE + PingFrame(stream_id=0).serialize()
        parsed = reader.feed(wire)
        assert len(parsed) == 1

    def test_bad_preface_rejected(self):
        reader = FrameReader(expect_preface=True)
        with pytest.raises(ProtocolError):
            reader.feed(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16)

    def test_unknown_frame_type_skipped(self):
        # type 0x77 is unknown; §4.1 says ignore it.
        unknown = b"\x00\x00\x03\x77\x00\x00\x00\x00\x01abc"
        reader = FrameReader()
        parsed = reader.feed(unknown + PingFrame(stream_id=0).serialize())
        assert len(parsed) == 1
        assert isinstance(parsed[0], PingFrame)

    def test_padded_header_blocks_report_the_octets_received(self):
        # RFC 7540 §6.2 / §6.6 bytes from the reference encoder: the
        # Pad Length octet and the padding count toward the frame's
        # wire size (and so toward a traced FrameReceived.size).
        headers = ref.frame(
            ref.HEADERS, ref.END_HEADERS | ref.PADDED, 3, b"\x06\x82\x87" + b"\x00" * 6
        )
        promise = ref.frame(
            ref.PUSH_PROMISE,
            ref.END_HEADERS | ref.PADDED,
            1,
            b"\x06" + struct.pack(">I", 4) + b"\x82\x87" + b"\x00" * 6,
        )
        parsed = FrameReader().feed(headers + promise)
        assert [frame.wire_size for frame in parsed] == [len(headers), len(promise)] == [18, 22]
        assert [frame.header_block for frame in parsed] == [b"\x82\x87", b"\x82\x87"]
        assert [frame.pad_length for frame in parsed] == [6, 6]
        assert [frame.serialize() for frame in parsed] == [headers, promise]

    def test_a_repeated_setting_reports_the_octets_received(self):
        # RFC 7540 §6.5.3: values are processed in order, so the last
        # value of a repeated identifier wins, but every pair was on the
        # wire and counts toward the frame's (traced) wire size.
        wire = ref.frame(ref.SETTINGS, 0, 0, struct.pack(">HIHI", 4, 100, 4, 200))
        (frame,) = FrameReader().feed(wire)
        assert frame.settings == {4: 200}
        assert frame.wire_size == len(wire) == 21
        assert frame.serialize() == wire

    def test_a_zero_pad_length_is_padding_present(self):
        # RFC 7540 §6.1, §6.2, §6.6: PADDED with a Pad Length of 0 is
        # legal; the Pad Length octet is on the wire and must stay there.
        wires = [
            ref.frame(ref.DATA, ref.PADDED, 1, b"\x00abc"),
            ref.frame(ref.HEADERS, ref.END_HEADERS | ref.PADDED, 3, b"\x00\x82\x87"),
            ref.frame(
                ref.PUSH_PROMISE,
                ref.END_HEADERS | ref.PADDED,
                1,
                b"\x00" + struct.pack(">I", 4) + b"\x82\x87",
            ),
        ]
        parsed = FrameReader().feed(b"".join(wires))
        assert [frame.wire_size for frame in parsed] == [len(wire) for wire in wires] == [13, 12, 16]
        assert [frame.pad_length for frame in parsed] == [0, 0, 0]
        assert [frame.serialize() for frame in parsed] == wires
        assert parsed[0].data == b"abc"
        assert [frame.header_block for frame in parsed[1:]] == [b"\x82\x87", b"\x82\x87"]

    def test_incomplete_frame_returns_nothing(self):
        reader = FrameReader()
        wire = DataFrame(stream_id=1, data=b"abcdef").serialize()
        assert reader.feed(wire[:10]) == []
        assert reader.buffered_bytes == 10


class TestDeclarations:
    def test_fields_are_the_packers_arguments(self):
        # Frame.serialize passes a frame's fields to its type's packer in
        # order, so the two must list the same names.
        for cls in Frame.__subclasses__():
            names = list(inspect.signature(cls.pack).parameters)
            assert names[:2] == ["stream_id", "flags"], cls
            assert [each.name for each in dataclasses.fields(cls)] == names, cls
            assert "serialize" not in vars(cls) and "payload_length" not in vars(cls)

    def test_every_rfc_7540_frame_type_is_parsed(self):
        assert len(FrameType) == 10
        assert {code: cls.TYPE for code, cls in _PARSERS.items()} == {
            int(frame_type): frame_type for frame_type in FrameType
        }
