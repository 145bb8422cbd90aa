"""HTTP/2 frame definitions with binary serialization (RFC 7540 §4, §6).

Every frame type defined by the RFC is implemented with a wire-accurate
binary layout: the 9-octet frame header (24-bit length, 8-bit type,
8-bit flags, 31-bit stream id with reserved bit) followed by the
type-specific payload.  The testbed ships real control-frame bytes
(SETTINGS, WINDOW_UPDATE, ...) through the TCP model.  It charges a
DATA frame its real 9 + payload octets while the payload itself travels
by reference, and a header block (:class:`HeaderBlock`) the octets of
its HEADERS or PUSH_PROMISE and CONTINUATION frames while its header
list travels by reference (``repro.h2.connection``).  So every frame
overhead is charged against the simulated links exactly as it would be
on the wire.  :class:`DataFrame` and :class:`HeadersFrame` remain the
byte-exact codecs for peers that send those frames as bytes, and
:func:`header_block_frames` gives a header block record's frames.

Each frame type is declared once.  Its wire layout is written in its
``pack_*`` function, ``(stream_id, flags, *payload fields)``, which the
connection's send path calls straight from its fields without building
a frame object.  Its frame class declares the same payload fields in
the same order, plus the ``parse`` that reads them back:
:meth:`Frame.serialize` is the packer applied to a frame's fields and
:attr:`Frame.wire_size` is the packed length.  A frame's ``flags`` is
the raw flag octet.  :class:`FrameReader` is the one receive-side
parser.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Dict, List, NamedTuple, Optional, Tuple, Type

from ..errors import ProtocolError
from .constants import (
    ABSOLUTE_MAX_FRAME_SIZE,
    CONNECTION_PREFACE,
    DEFAULT_MAX_FRAME_SIZE,
    DEFAULT_WEIGHT,
    FRAME_HEADER_SIZE,
    ErrorCode,
    Flag,
    FrameType,
)

_HEADER_STRUCT = struct.Struct(">IBI")  # (length << 8 | type), flags, stream id
_PRIORITY_STRUCT = struct.Struct(">IB")  # E bit | stream dependency, weight - 1
_U32 = struct.Struct(">I")
_SETTING_STRUCT = struct.Struct(">HI")
_GOAWAY_STRUCT = struct.Struct(">II")  # last stream id, error code

# Raw flag values for hot parse paths (IntFlag.__and__ is a Python-level
# call; these tests run once or twice per frame received).
_RAW_ACK = Flag.ACK._value_
_RAW_END_HEADERS = Flag.END_HEADERS._value_
_RAW_PADDED = Flag.PADDED._value_
_RAW_PRIORITY = Flag.PRIORITY._value_

# Raw type codes (an IntEnum member is a Python object per load).
_DATA = FrameType.DATA._value_
_HEADERS = FrameType.HEADERS._value_
_PRIORITY = FrameType.PRIORITY._value_
_RST_STREAM = FrameType.RST_STREAM._value_
_SETTINGS = FrameType.SETTINGS._value_
_PUSH_PROMISE = FrameType.PUSH_PROMISE._value_
_PING = FrameType.PING._value_
_GOAWAY = FrameType.GOAWAY._value_
_WINDOW_UPDATE = FrameType.WINDOW_UPDATE._value_
_CONTINUATION = FrameType.CONTINUATION._value_


def _pack_header(length: int, frame_type: int, flags: int, stream_id: int) -> bytes:
    if length > ABSOLUTE_MAX_FRAME_SIZE:
        raise ProtocolError(
            f"frame payload of {length} exceeds maximum", ErrorCode.FRAME_SIZE_ERROR
        )
    return _HEADER_STRUCT.pack((length << 8) | frame_type, flags, stream_id & 0x7FFFFFFF)


# ----------------------------------------------------------------------
# wire layouts, one function per frame type (RFC 7540 §6), each taking
# ``(stream_id, flags, *payload fields)``.  ``flags`` is the raw flag
# octet; a flag the payload implies (PADDED, PRIORITY) is set or
# cleared here from the payload alone, whatever the caller passed.
# Padding is present or absent apart from its length: a ``pad_length``
# of ``None`` means no Pad Length octet, ``0`` the octet and no padding
# (§6.1, §6.2, §6.6 allow both).  Fixed-size frames pack their header
# directly: their length cannot exceed the maximum.
# ----------------------------------------------------------------------
def _pad(payload: bytes, pad_length: int) -> bytes:
    """The Pad Length octet, ``payload`` and ``pad_length`` zero octets."""
    return bytes((pad_length,)) + payload + b"\x00" * pad_length


def pack_data(
    stream_id: int, flags: int, data: bytes, pad_length: Optional[int] = None
) -> bytes:
    """DATA (§6.1), padded unless ``pad_length`` is ``None``."""
    if pad_length is None:
        flags &= ~_RAW_PADDED
    else:
        data = _pad(data, pad_length)
        flags |= _RAW_PADDED
    return _pack_header(len(data), _DATA, flags, stream_id) + data


def pack_headers(
    stream_id: int,
    flags: int,
    header_block: bytes,
    priority: Optional["PriorityData"] = None,
    pad_length: Optional[int] = None,
) -> bytes:
    """HEADERS (§6.2); a ``priority`` adds the 5-octet block and the
    PRIORITY flag, a ``pad_length`` the padding and the PADDED flag."""
    flags &= ~(_RAW_PADDED | _RAW_PRIORITY)
    if priority is not None:
        header_block = (
            _PRIORITY_STRUCT.pack(
                priority.depends_on | (0x80000000 if priority.exclusive else 0),
                priority.weight - 1,
            )
            + header_block
        )
        flags |= _RAW_PRIORITY
    if pad_length is not None:
        header_block = _pad(header_block, pad_length)
        flags |= _RAW_PADDED
    return _pack_header(len(header_block), _HEADERS, flags, stream_id) + header_block


def pack_priority(stream_id: int, flags: int, priority: "PriorityData") -> bytes:
    """PRIORITY (§6.3)."""
    return _HEADER_STRUCT.pack(
        (5 << 8) | _PRIORITY, flags, stream_id & 0x7FFFFFFF
    ) + _PRIORITY_STRUCT.pack(
        priority.depends_on | (0x80000000 if priority.exclusive else 0),
        priority.weight - 1,
    )


def pack_rst_stream(stream_id: int, flags: int, error_code: int) -> bytes:
    """RST_STREAM (§6.4)."""
    return _HEADER_STRUCT.pack(
        (4 << 8) | _RST_STREAM, flags, stream_id & 0x7FFFFFFF
    ) + _U32.pack(error_code)


def pack_settings(
    stream_id: int,
    flags: int,
    settings: Dict[int, int],
    superseded: Tuple[Tuple[int, int], ...] = (),
) -> bytes:
    """SETTINGS (§6.5): the ``superseded`` pairs, then ``settings`` in
    identifier order."""
    pairs = (*superseded, *sorted(settings.items()))
    return _pack_header(6 * len(pairs), _SETTINGS, flags, stream_id) + b"".join(
        _SETTING_STRUCT.pack(key, value) for key, value in pairs
    )


def pack_push_promise(
    stream_id: int,
    flags: int,
    promised_stream_id: int,
    header_block: bytes,
    pad_length: Optional[int] = None,
) -> bytes:
    """PUSH_PROMISE (§6.6), padded unless ``pad_length`` is ``None``."""
    payload = _U32.pack(promised_stream_id & 0x7FFFFFFF) + header_block
    if pad_length is None:
        flags &= ~_RAW_PADDED
    else:
        payload = _pad(payload, pad_length)
        flags |= _RAW_PADDED
    return _pack_header(len(payload), _PUSH_PROMISE, flags, stream_id) + payload


def pack_ping(stream_id: int, flags: int, opaque: bytes) -> bytes:
    """PING (§6.7)."""
    if len(opaque) != 8:
        raise ProtocolError("PING payload must be 8 octets", ErrorCode.FRAME_SIZE_ERROR)
    return _HEADER_STRUCT.pack((8 << 8) | _PING, flags, stream_id & 0x7FFFFFFF) + opaque


def pack_goaway(
    stream_id: int, flags: int, last_stream_id: int, error_code: int, debug_data: bytes = b""
) -> bytes:
    """GOAWAY (§6.8)."""
    return (
        _pack_header(8 + len(debug_data), _GOAWAY, flags, stream_id)
        + _GOAWAY_STRUCT.pack(last_stream_id & 0x7FFFFFFF, error_code)
        + debug_data
    )


def pack_window_update(stream_id: int, flags: int, increment: int) -> bytes:
    """WINDOW_UPDATE (§6.9)."""
    return _HEADER_STRUCT.pack(
        (4 << 8) | _WINDOW_UPDATE, flags, stream_id & 0x7FFFFFFF
    ) + _U32.pack(increment & 0x7FFFFFFF)


def pack_continuation(stream_id: int, flags: int, header_block: bytes) -> bytes:
    """CONTINUATION (§6.10)."""
    return _pack_header(len(header_block), _CONTINUATION, flags, stream_id) + header_block


class HeaderBlock(NamedTuple):
    """One header block as a single transport record: a HEADERS frame —
    a PUSH_PROMISE for ``promised_id`` — and the CONTINUATION frames
    after it.  Between two :class:`~repro.h2.connection.H2Connection`
    endpoints, over either transport, this is what travels: the receiver
    takes ``headers`` as it is, parsing and decoding nothing.  It occupies the
    octets of its frames, ``sum(sizes)``; :func:`header_block_frames`
    gives the frames themselves."""

    stream_id: int
    #: The first frame's raw flag octet: END_HEADERS is clear when
    #: CONTINUATION frames follow.  PRIORITY is implied by ``priority``.
    flags: int
    priority: Optional["PriorityData"]
    promised_id: Optional[int]
    #: The HPACK-encoded block, whole.
    block: bytes
    #: What ``HpackDecoder.decode(block)`` returns, in a list of its own.
    headers: List[Tuple[str, str]]
    #: Each frame's wire size, header included, in order.
    sizes: Tuple[int, ...]


def header_block_frames(record: HeaderBlock) -> List[bytes]:
    """The wire frames of a header block record: the HEADERS or
    PUSH_PROMISE frame, then one CONTINUATION per further entry of
    ``record.sizes``, the last with END_HEADERS.  Each frame holds the
    next octets of the block that its size leaves room for."""
    stream_id, flags, priority, promised_id, block, _, sizes = record
    if promised_id is None:
        end = sizes[0] - FRAME_HEADER_SIZE - (0 if priority is None else 5)
        frames = [pack_headers(stream_id, flags, block[:end], priority)]
    else:
        end = sizes[0] - FRAME_HEADER_SIZE - 4
        frames = [pack_push_promise(stream_id, flags, promised_id, block[:end])]
    last = len(sizes) - 1
    for index in range(1, last + 1):
        start, end = end, end + sizes[index] - FRAME_HEADER_SIZE
        frames.append(
            pack_continuation(stream_id, _RAW_END_HEADERS if index == last else 0, block[start:end])
        )
    return frames


# ----------------------------------------------------------------------
# frame objects: what :class:`FrameReader` returns, and a way to build
# a frame field by field (tests, foreign peers)
# ----------------------------------------------------------------------
@dataclass
class Frame:
    """Base class for all frames.  A concrete frame's fields after
    ``(stream_id, flags)`` are its ``pack`` function's payload
    arguments, in order."""

    stream_id: int
    #: The raw flag octet (§4.1); test a flag with ``flags & Flag.X``.
    flags: int = 0

    #: Frame type code; set by each concrete subclass.
    TYPE: ClassVar[FrameType]
    #: The type's ``pack_*`` function; set by each concrete subclass.
    pack: ClassVar[Callable[..., bytes]]

    def serialize(self) -> bytes:
        """The frame's wire octets, from its type's ``pack_*`` function."""
        return self.pack(*[getattr(self, each.name) for each in fields(self)])

    @property
    def wire_size(self) -> int:
        """Total size of the frame on the wire, header included."""
        return len(self.serialize())


@dataclass
class DataFrame(Frame):
    """DATA (§6.1): application payload, optionally padded."""

    data: bytes = b""
    #: ``None``: unpadded; else the padding octets after the Pad Length.
    pad_length: Optional[int] = None
    TYPE = FrameType.DATA
    pack = staticmethod(pack_data)

    @classmethod
    def parse(cls, flags: int, stream_id: int, body: bytes) -> "DataFrame":
        pad = None
        if flags & _RAW_PADDED:
            if not body:
                raise ProtocolError("PADDED DATA frame without pad length")
            pad = body[0]
            if pad >= len(body):
                raise ProtocolError("padding exceeds frame payload")
            body = body[1 : len(body) - pad]
        return cls(stream_id=stream_id, flags=flags, data=body, pad_length=pad)


@dataclass
class PriorityData:
    """The 5-octet priority block shared by HEADERS and PRIORITY frames."""

    depends_on: int = 0
    weight: int = DEFAULT_WEIGHT
    exclusive: bool = False

    def serialize(self) -> bytes:
        return _PRIORITY_STRUCT.pack(
            self.depends_on | (0x80000000 if self.exclusive else 0), self.weight - 1
        )

    @classmethod
    def parse(cls, body: bytes) -> "PriorityData":
        if len(body) < 5:
            raise ProtocolError("truncated priority block", ErrorCode.FRAME_SIZE_ERROR)
        dep, weight = _PRIORITY_STRUCT.unpack_from(body)
        return cls(
            depends_on=dep & 0x7FFFFFFF,
            weight=weight + 1,
            exclusive=bool(dep & 0x80000000),
        )


@dataclass
class HeadersFrame(Frame):
    """HEADERS (§6.2): carries an HPACK-encoded header block fragment."""

    header_block: bytes = b""
    priority: Optional[PriorityData] = None
    #: ``None``: unpadded; else the padding octets after the Pad Length.
    pad_length: Optional[int] = None
    TYPE = FrameType.HEADERS
    pack = staticmethod(pack_headers)

    @classmethod
    def parse(cls, flags: int, stream_id: int, body: bytes) -> "HeadersFrame":
        pad = None
        if flags & _RAW_PADDED:
            if not body:
                raise ProtocolError("PADDED HEADERS frame without pad length")
            pad = body[0]
            body = body[1:]
        priority = None
        if flags & _RAW_PRIORITY:
            priority = PriorityData.parse(body)
            body = body[5:]
        if pad:
            if pad > len(body):
                raise ProtocolError("padding exceeds frame payload")
            body = body[: len(body) - pad]
        return cls(
            stream_id=stream_id, flags=flags, header_block=body, priority=priority, pad_length=pad
        )


@dataclass
class PriorityFrame(Frame):
    """PRIORITY (§6.3): reprioritize a stream."""

    priority: PriorityData = field(default_factory=PriorityData)
    TYPE = FrameType.PRIORITY
    pack = staticmethod(pack_priority)

    @classmethod
    def parse(cls, flags: int, stream_id: int, body: bytes) -> "PriorityFrame":
        if stream_id == 0:
            raise ProtocolError("PRIORITY frame on stream 0")
        if len(body) != 5:
            raise ProtocolError("PRIORITY frame must be 5 octets", ErrorCode.FRAME_SIZE_ERROR)
        return cls(stream_id=stream_id, flags=flags, priority=PriorityData.parse(body))


@dataclass
class RstStreamFrame(Frame):
    """RST_STREAM (§6.4): immediate stream termination.

    A client cancels an unwanted push by sending this with CANCEL —
    though, as the paper notes (§2.1), the pushed bytes are often
    already in flight by then.
    """

    error_code: ErrorCode = ErrorCode.NO_ERROR
    TYPE = FrameType.RST_STREAM
    pack = staticmethod(pack_rst_stream)

    @classmethod
    def parse(cls, flags: int, stream_id: int, body: bytes) -> "RstStreamFrame":
        if len(body) != 4:
            raise ProtocolError("RST_STREAM frame must be 4 octets", ErrorCode.FRAME_SIZE_ERROR)
        (code,) = _U32.unpack(body)
        try:
            error_code = ErrorCode(code)
        except ValueError:
            error_code = ErrorCode.INTERNAL_ERROR
        return cls(stream_id=stream_id, flags=flags, error_code=error_code)


@dataclass
class SettingsFrame(Frame):
    """SETTINGS (§6.5): connection configuration.

    ``SETTINGS_ENABLE_PUSH = 0`` is how the paper's *no push* baseline
    disables Server Push from the client side.
    """

    settings: Dict[int, int] = field(default_factory=dict)
    #: Received pairs that a later value of the same identifier
    #: overrides (§6.5.3 processes values in order), in received order.
    superseded: Tuple[Tuple[int, int], ...] = ()
    TYPE = FrameType.SETTINGS
    pack = staticmethod(pack_settings)

    @classmethod
    def parse(cls, flags: int, stream_id: int, body: bytes) -> "SettingsFrame":
        if stream_id != 0:
            raise ProtocolError("SETTINGS frame on non-zero stream")
        if len(body) % 6 != 0:
            raise ProtocolError("SETTINGS payload not a multiple of 6", ErrorCode.FRAME_SIZE_ERROR)
        if flags & _RAW_ACK and body:
            raise ProtocolError("SETTINGS ACK with payload", ErrorCode.FRAME_SIZE_ERROR)
        pairs = list(_SETTING_STRUCT.iter_unpack(body))
        settings = dict(pairs)
        superseded = ()
        if len(settings) < len(pairs):
            # Only a repeat costs Python calls: the ledger gates h2's
            # calls per load, and our own endpoints never repeat one.
            last = {key: index for index, (key, _) in enumerate(pairs)}
            superseded = tuple(
                pair for index, pair in enumerate(pairs) if last[pair[0]] != index
            )
        return cls(
            stream_id=stream_id, flags=flags, settings=settings, superseded=superseded
        )


@dataclass
class PushPromiseFrame(Frame):
    """PUSH_PROMISE (§6.6): announces a pushed response.

    Sent on the *parent* (request) stream; reserves ``promised_stream_id``
    and carries the promised request's headers.
    """

    promised_stream_id: int = 0
    header_block: bytes = b""
    #: ``None``: unpadded; else the padding octets after the Pad Length.
    pad_length: Optional[int] = None
    TYPE = FrameType.PUSH_PROMISE
    pack = staticmethod(pack_push_promise)

    @classmethod
    def parse(cls, flags: int, stream_id: int, body: bytes) -> "PushPromiseFrame":
        pad = None
        if flags & _RAW_PADDED:
            if not body:
                raise ProtocolError("PADDED PUSH_PROMISE frame without pad length")
            pad = body[0]
            body = body[1:]
        if len(body) < 4:
            raise ProtocolError("truncated PUSH_PROMISE", ErrorCode.FRAME_SIZE_ERROR)
        (promised,) = _U32.unpack_from(body)
        block = body[4:]
        if pad:
            if pad > len(block):
                raise ProtocolError("padding exceeds frame payload")
            block = block[: len(block) - pad]
        return cls(
            stream_id=stream_id,
            flags=flags,
            promised_stream_id=promised & 0x7FFFFFFF,
            header_block=block,
            pad_length=pad,
        )


@dataclass
class PingFrame(Frame):
    """PING (§6.7): liveness / RTT probe."""

    opaque: bytes = b"\x00" * 8
    TYPE = FrameType.PING
    pack = staticmethod(pack_ping)

    @classmethod
    def parse(cls, flags: int, stream_id: int, body: bytes) -> "PingFrame":
        if stream_id != 0:
            raise ProtocolError("PING frame on non-zero stream")
        if len(body) != 8:
            raise ProtocolError("PING frame must be 8 octets", ErrorCode.FRAME_SIZE_ERROR)
        return cls(stream_id=stream_id, flags=flags, opaque=body)


@dataclass
class GoAwayFrame(Frame):
    """GOAWAY (§6.8): graceful connection shutdown."""

    last_stream_id: int = 0
    error_code: ErrorCode = ErrorCode.NO_ERROR
    debug_data: bytes = b""
    TYPE = FrameType.GOAWAY
    pack = staticmethod(pack_goaway)

    @classmethod
    def parse(cls, flags: int, stream_id: int, body: bytes) -> "GoAwayFrame":
        if stream_id != 0:
            raise ProtocolError("GOAWAY frame on non-zero stream")
        if len(body) < 8:
            raise ProtocolError("truncated GOAWAY", ErrorCode.FRAME_SIZE_ERROR)
        last, code = _GOAWAY_STRUCT.unpack_from(body)
        try:
            error_code = ErrorCode(code)
        except ValueError:
            error_code = ErrorCode.INTERNAL_ERROR
        return cls(
            stream_id=stream_id,
            flags=flags,
            last_stream_id=last & 0x7FFFFFFF,
            error_code=error_code,
            debug_data=body[8:],
        )


@dataclass
class WindowUpdateFrame(Frame):
    """WINDOW_UPDATE (§6.9): flow-control credit."""

    increment: int = 0
    TYPE = FrameType.WINDOW_UPDATE
    pack = staticmethod(pack_window_update)

    @classmethod
    def parse(cls, flags: int, stream_id: int, body: bytes) -> "WindowUpdateFrame":
        if len(body) != 4:
            raise ProtocolError("WINDOW_UPDATE must be 4 octets", ErrorCode.FRAME_SIZE_ERROR)
        increment = _U32.unpack(body)[0] & 0x7FFFFFFF
        if increment == 0:
            raise ProtocolError("WINDOW_UPDATE with zero increment")
        return cls(stream_id=stream_id, flags=flags, increment=increment)


@dataclass
class ContinuationFrame(Frame):
    """CONTINUATION (§6.10): continues a header block."""

    header_block: bytes = b""
    TYPE = FrameType.CONTINUATION
    pack = staticmethod(pack_continuation)

    @classmethod
    def parse(cls, flags: int, stream_id: int, body: bytes) -> "ContinuationFrame":
        return cls(stream_id=stream_id, flags=flags, header_block=body)


#: Type code -> frame class, for every frame class defined above.
_PARSERS: Dict[int, Type[Frame]] = {cls.TYPE._value_: cls for cls in Frame.__subclasses__()}


class FrameReader:
    """Incremental frame parser fed by a TCP byte stream.

    ``max_frame_size`` is this endpoint's SETTINGS_MAX_FRAME_SIZE: a
    longer frame is a connection error FRAME_SIZE_ERROR (§4.2, which
    §5.4.1 allows in place of a stream error), raised once its header
    has arrived."""

    def __init__(
        self, expect_preface: bool = False, max_frame_size: int = DEFAULT_MAX_FRAME_SIZE
    ):
        #: The incomplete tail of the stream; empty between frames.
        self._buffer = b""
        self._expect_preface = expect_preface
        self._max_frame_size = max_frame_size

    def feed(self, data: bytes) -> List[Frame]:
        """Append bytes; return every complete frame now available.

        Frames are parsed in place at increasing offsets and only the
        unconsumed tail (if any) is kept — re-slicing the buffer after
        each frame would re-copy it per frame, which is quadratic when a
        TCP segment completes several frames at once.  Frames of an
        unknown type are skipped (§4.1).
        """
        frames: List[Frame] = []
        if self._buffer:
            data = self._buffer + data
            self._buffer = b""
        offset = 0
        if self._expect_preface:
            if len(data) < len(CONNECTION_PREFACE):
                self._buffer = data
                return frames
            if not data.startswith(CONNECTION_PREFACE):
                raise ProtocolError("invalid connection preface")
            offset = len(CONNECTION_PREFACE)
            self._expect_preface = False
        n = len(data)
        unpack_from = _HEADER_STRUCT.unpack_from
        max_frame_size = self._max_frame_size
        while n - offset >= FRAME_HEADER_SIZE:
            length_type, flags, stream_id = unpack_from(data, offset)
            length = length_type >> 8
            if length > max_frame_size:
                raise ProtocolError(
                    f"{length}-octet frame exceeds SETTINGS_MAX_FRAME_SIZE {max_frame_size}",
                    ErrorCode.FRAME_SIZE_ERROR,
                )
            end = offset + FRAME_HEADER_SIZE + length
            if end > n:
                break
            parser = _PARSERS.get(length_type & 0xFF)
            if parser is not None:  # §4.1: skip unknown types
                frames.append(
                    parser.parse(
                        flags, stream_id & 0x7FFFFFFF, data[offset + FRAME_HEADER_SIZE : end]
                    )
                )
            offset = end
        if offset < n:
            self._buffer = data[offset:] if offset else data
        return frames

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)
