"""A frame-level HTTP/2 peer, written from RFC 7540 alone.

Every other test of ``repro.h2`` has our own other half on the far
end, so a rule both halves get wrong — window accounting, say — passes
unseen.  This peer talks to one :class:`~repro.h2.H2Connection` the way
h2spec does: it packs each frame with ``struct`` straight from the
§4.1 header and §6 payload layouts, and decodes what comes back the
same way.  It imports
nothing of ``tests/support/frame_reference.py`` and, of
``repro.h2.frames``, only what turns a header block record back into
bytes (below); anything more would make the check circular.  Header
blocks it sends are HPACK literals without indexing (RFC 7541 §6.2.2),
and header blocks it receives it does not decode.

The connection under test runs over a :class:`PipeEndpoint`, the part
of a transport endpoint that ``H2Connection`` uses: the ``on_data`` /
``on_record`` / ``on_writable`` callbacks it installs, and the ``_out``
half its flush paths write to.  There is no network and no simulator:
bytes the peer sends reach the connection's ``on_data`` at once, and
whatever the connection writes is queued as wire bytes for
:meth:`H2Peer.receive`.  A DATA record becomes a DATA frame, and a
header block record its HEADERS or PUSH_PROMISE and CONTINUATION
frames, by ``header_block_frames``, so the peer parses every frame
our connection sends from bytes, as it would from a foreign endpoint.

Usage::

    peer = H2Peer("server")              # a peer client, an H2 server
    peer.handshake()
    peer.send(peer.headers(1, end_stream=True))
    frames = peer.receive()              # [Frame(type, flags, sid, payload)]
"""

import struct
from typing import Dict, List, NamedTuple, Optional

from repro.h2 import H2Connection, Settings
from repro.h2.frames import HeaderBlock, header_block_frames

#: §3.5: the client connection preface.
PREFACE = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

#: §4.1: Length (24), Type (8), Flags (8), R (1) + Stream Identifier (31).
_HEADER = struct.Struct(">BHBBI")

# §6: frame types.
DATA = 0x0
HEADERS = 0x1
PRIORITY = 0x2
RST_STREAM = 0x3
SETTINGS = 0x4
PUSH_PROMISE = 0x5
PING = 0x6
GOAWAY = 0x7
WINDOW_UPDATE = 0x8
CONTINUATION = 0x9

# §6: flags.
END_STREAM = 0x1
ACK = 0x1
END_HEADERS = 0x4
PADDED = 0x8

# §6.5.2: setting identifiers.
SETTINGS_HEADER_TABLE_SIZE = 0x1
SETTINGS_ENABLE_PUSH = 0x2
SETTINGS_INITIAL_WINDOW_SIZE = 0x4

# §7: error codes.
NO_ERROR = 0x0
PROTOCOL_ERROR = 0x1
FLOW_CONTROL_ERROR = 0x3
STREAM_CLOSED = 0x5
FRAME_SIZE_ERROR = 0x6
CANCEL = 0x8

#: §6.9.1: the largest legal flow-control window.
MAX_WINDOW = 2**31 - 1

REQUEST = [
    (":method", "GET"),
    (":scheme", "https"),
    (":authority", "example.com"),
    (":path", "/"),
]


class Frame(NamedTuple):
    type: int
    flags: int
    stream_id: int
    payload: bytes

    @property
    def increment(self) -> int:
        """§6.9: a WINDOW_UPDATE's Window Size Increment."""
        return struct.unpack(">I", self.payload)[0] & 0x7FFFFFFF


def frame(type_: int, flags: int, stream_id: int, payload: bytes = b"") -> bytes:
    length = len(payload)
    return _HEADER.pack(length >> 16, length & 0xFFFF, type_, flags, stream_id) + payload


def settings(params: Optional[Dict[int, int]] = None, ack: bool = False) -> bytes:
    payload = b"".join(struct.pack(">HI", k, v) for k, v in (params or {}).items())
    return frame(SETTINGS, ACK if ack else 0, 0, payload)


def settings_pairs(*pairs) -> bytes:
    """§6.5.1: ``(identifier, value)`` pairs in the order given, an
    identifier repeated as often as it is given."""
    return frame(SETTINGS, 0, 0, b"".join(struct.pack(">HI", k, v) for k, v in pairs))


def window_update(stream_id: int, increment: int) -> bytes:
    return frame(WINDOW_UPDATE, 0, stream_id, struct.pack(">I", increment))


def data(stream_id: int, size: int, end_stream: bool = False) -> bytes:
    return frame(DATA, END_STREAM if end_stream else 0, stream_id, b"d" * size)


def padded_data(stream_id: int, size: int, pad_length: int) -> bytes:
    """§6.1: the Pad Length octet, ``size`` data octets, then padding."""
    payload = bytes((pad_length,)) + b"d" * size + bytes(pad_length)
    return frame(DATA, PADDED, stream_id, payload)


def rst_stream(stream_id: int, error_code: int) -> bytes:
    """§6.4: a 32-bit error code."""
    return frame(RST_STREAM, 0, stream_id, struct.pack(">I", error_code))


def priority(stream_id: int, depends_on: int = 0, weight: int = 16, exclusive: bool = False) -> bytes:
    """§6.3: E bit and 31-bit dependency, then the weight less one."""
    dependency = depends_on | (0x80000000 if exclusive else 0)
    return frame(PRIORITY, 0, stream_id, struct.pack(">IB", dependency, weight - 1))


def push_promise(stream_id: int, promised_id: int, fields=None, end_headers: bool = True) -> bytes:
    """§6.6: R bit and 31-bit promised stream id, then a header block."""
    block = header_block(fields if fields is not None else REQUEST)
    payload = struct.pack(">I", promised_id) + block
    return frame(PUSH_PROMISE, END_HEADERS if end_headers else 0, stream_id, payload)


def ping(opaque: bytes = b"\x00" * 8, ack: bool = False) -> bytes:
    """§6.7: eight opaque octets on stream 0."""
    return frame(PING, ACK if ack else 0, 0, opaque)


def goaway(last_stream_id: int, error_code: int = NO_ERROR) -> bytes:
    """§6.8: R bit and Last-Stream-ID, then a 32-bit error code."""
    return frame(GOAWAY, 0, 0, struct.pack(">II", last_stream_id, error_code))


def continuation(stream_id: int, block: bytes, end_headers: bool = True) -> bytes:
    """§6.10: a further fragment of a header block."""
    return frame(CONTINUATION, END_HEADERS if end_headers else 0, stream_id, block)


def header_block(headers) -> bytes:
    """Each field as a literal without indexing, new name (RFC 7541
    §6.2.2), its strings raw and under 127 octets, so that each length
    fits the 7-bit prefix in one octet (§5.1)."""
    out = bytearray()
    for name, value in headers:
        out.append(0)
        for text in (name.encode(), value.encode()):
            assert len(text) < 127
            out.append(len(text))
            out += text
    return bytes(out)


class _PipeOut:
    """The outbound half ``H2Connection`` flushes into, drained at once."""

    _buffered = 0
    _max_buffer = 1 << 20

    class _cc:
        cwnd = float(1 << 20)

    def __init__(self):
        self.wire = bytearray()

    def enqueue(self, payload: bytes) -> int:
        self.wire += payload
        return len(payload)

    def enqueue_record(self, size: int, record) -> bool:
        if record.__class__ is HeaderBlock:
            # A header block: its frames as the bytes path would write
            # them, HPACK block included, for the peer to parse.
            self.wire += b"".join(header_block_frames(record))
            return True
        # ``(stream id, span, flags)``: the payload is a window onto a body.
        stream_id, span, flags = record
        self.wire += frame(DATA, flags, stream_id, span.source[span.start : span.stop])
        return True

    def enqueue_stream(self, stream_id: int, span, fin: bool) -> int:
        # A QUIC body stream's bytes, shown to the peer as DATA too.
        self.enqueue_record(0, (stream_id, span, END_STREAM if fin else 0))
        return span.stop - span.start


class PipeEndpoint:
    """What ``H2Connection`` uses of a transport endpoint, over a byte pipe."""

    def __init__(self, name: str):
        self.name = name
        self.on_data = self.on_record = self.on_writable = None
        #: Installed by ``H2OverQuicConnection`` only: QUIC body bytes.
        self.on_stream_data = None
        self._out = _PipeOut()


class H2Peer:
    """The far end of one ``H2Connection`` whose ``role`` is given."""

    def __init__(
        self, role: str, settings: Optional[Settings] = None, cls=H2Connection, tracer=None
    ):
        self.endpoint = PipeEndpoint(f"{role}-under-test")
        self.conn = cls(self.endpoint, role, settings=settings, tracer=tracer)
        #: A client under test opens its output with the preface.
        self._expect_preface = role == "client"
        self._inbox = b""

    def send(self, *frames: bytes) -> None:
        self.endpoint.on_data(b"".join(frames))

    def receive(self) -> List[Frame]:
        """Every complete frame the connection has written since the
        last call (the connection's preface stripped)."""
        out = self.endpoint._out
        self._inbox += bytes(out.wire)
        out.wire.clear()
        if self._expect_preface and len(self._inbox) >= len(PREFACE):
            assert self._inbox.startswith(PREFACE), "§3.5: client preface missing"
            self._inbox = self._inbox[len(PREFACE) :]
            self._expect_preface = False
        frames = []
        while len(self._inbox) >= _HEADER.size:
            high, low, type_, flags, stream_id = _HEADER.unpack_from(self._inbox)
            end = _HEADER.size + (high << 16 | low)
            if len(self._inbox) < end:
                break
            payload = self._inbox[_HEADER.size : end]
            frames.append(Frame(type_, flags, stream_id & 0x7FFFFFFF, payload))
            self._inbox = self._inbox[end:]
        return frames

    def handshake(self, params: Optional[Dict[int, int]] = None) -> List[Frame]:
        """Exchange prefaces and SETTINGS; returns what the connection sent."""
        preface = PREFACE if self.conn.role == "server" else b""
        self.send(preface + settings(params))
        return self.receive()

    def headers(
        self, stream_id: int, end_stream: bool = False, fields=None, block: bytes = None
    ) -> bytes:
        """HEADERS (§6.2) carrying ``fields``; given a raw ``block``
        instead, a first fragment without END_HEADERS."""
        flags = END_STREAM if end_stream else 0
        if block is None:
            block = header_block(fields if fields is not None else REQUEST)
            flags |= END_HEADERS
        return frame(HEADERS, flags, stream_id, block)


def of_type(frames: List[Frame], type_: int) -> List[Frame]:
    return [f for f in frames if f.type == type_]


def data_octets(frames: List[Frame], stream_id: int) -> int:
    return sum(len(f.payload) for f in frames if f.type == DATA and f.stream_id == stream_id)
