"""HTTP/2 connection logic over the simulated TCP byte stream.

One :class:`H2Connection` object implements one endpoint (client or
server) of an HTTP/2 connection.  SETTINGS, WINDOW_UPDATE, RST_STREAM,
PRIORITY and PING frames flow through the TCP model as real bytes.  A
DATA frame is written as one transport *record* of 9 + payload octets
whose payload is a :class:`~repro.span.Span` of the response body.  A
header block — HEADERS or PUSH_PROMISE and any CONTINUATIONs — is one
record too, a :class:`~repro.h2.frames.HeaderBlock` of its frames'
octets: the sender still HPACK-encodes it, and the receiver takes the
header list the encoder was handed instead of parsing and decoding the
octets.  So every protocol overhead is charged against the simulated
links while no body byte is copied and no header block is decoded on
the way, over TCP and on QUIC's control stream alike.  The bytes path
(``_on_tcp_data``: ``FrameReader`` and the frame handlers) receives
what a foreign peer sends as bytes, and adapts it onto the records: a
DATA frame becomes the tuple ``_on_data_record`` takes, and
``_handle_header_frame`` gathers a HEADERS or PUSH_PROMISE frame and
its CONTINUATIONs into the record ``_on_header_block`` finishes, where
``HpackDecoder`` decodes it.

Send-side design (mirrors h2o): control frames (HEADERS, PUSH_PROMISE,
SETTINGS, WINDOW_UPDATE, RST_STREAM, PING, GOAWAY) are queued and
flushed ahead of body data.  Body bytes sit in per-stream queues; every
time socket-buffer space frees, the **data scheduler** picks which
stream's bytes to serialize next.  Swapping that scheduler is how the
paper's Interleaving Push is implemented (see ``repro.server``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..errors import FlowControlError, ProtocolError, StreamError
from ..netsim.transport import Endpoint
from .constants import (
    CONNECTION_PREFACE,
    DEFAULT_INITIAL_WINDOW_SIZE,
    DEFAULT_WEIGHT,
    MAX_WINDOW_SIZE,
    ErrorCode,
    Flag,
    StreamState,
)
from .frames import (
    ContinuationFrame,
    DataFrame,
    FrameReader,
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
    pack_ping,
    pack_priority,
    pack_rst_stream,
    pack_settings,
    pack_window_update,
)
from .hpack import HpackDecoder, HpackEncoder
from .priority import PriorityTree
from .settings import (
    ENABLE_PUSH,
    HEADER_TABLE_SIZE,
    INITIAL_WINDOW_SIZE,
    MAX_FRAME_SIZE,
    Settings,
)
from ..span import Body, Span
from .stream import TRANSITIONS, H2Stream, Refusal, StreamEvent
from ..trace.core import (
    FrameReceived,
    FrameSent,
    PushPromised,
    StreamClosed,
    StreamOpened,
    StreamReset,
)

Header = Tuple[str, str]

#: DATA frame header size, for socket-space arithmetic.
_FRAME_HEADER = 9

#: Connection receive window a client grows to at start-up (Chromium).
_CONNECTION_RECV_WINDOW = 15 * 1024 * 1024

# Module aliases for what the per-object paths read: a module global
# loads in a quarter of the time of an enum attribute.
_TRANSITIONS = TRANSITIONS
_IDLE = StreamState.IDLE
_CLOSED = StreamState.CLOSED
_SEND_HEADERS = StreamEvent.SEND_HEADERS
_RECV_HEADERS = StreamEvent.RECV_HEADERS
_RESERVE_LOCAL = StreamEvent.RESERVE_LOCAL
_RESERVE_REMOTE = StreamEvent.RESERVE_REMOTE
_RECV_PUSH_PROMISE = StreamEvent.RECV_PUSH_PROMISE
_SEND_END_STREAM = StreamEvent.SEND_END_STREAM
_RECV_END_STREAM = StreamEvent.RECV_END_STREAM
_RECV_DATA = StreamEvent.RECV_DATA

_END_STREAM_RAW = Flag.END_STREAM._value_
_END_HEADERS_RAW = Flag.END_HEADERS._value_
_ACK_RAW = Flag.ACK._value_
_END_HEADERS_END_STREAM_RAW = _END_HEADERS_RAW | _END_STREAM_RAW

#: By the role that receives it, what a header list is, the
#: pseudo-header fields it may carry and those it must: a server's
#: requests (RFC 7540 §8.1.2.3), a client's responses (§8.1.2.4).
_PSEUDO = {
    "server": (
        "request",
        frozenset((":method", ":scheme", ":authority", ":path")),
        frozenset((":method", ":scheme", ":path")),
    ),
    "client": ("response", frozenset((":status",)), frozenset((":status",))),
}
#: Connection-specific fields (§8.1.2.2).
_CONNECTION_FIELDS = frozenset(
    ("connection", "keep-alive", "proxy-connection", "transfer-encoding", "upgrade")
)


def _malformed(headers: List[Header], role: str) -> Optional[str]:
    """Why a request (``role`` "server") or a response (``role``
    "client") is malformed (§8.1.2), or ``None``.  A CONNECT request
    (§8.3) is held to the same rule: the model has no tunnels."""
    kind, allowed, required = _PSEUDO[role]
    pseudo: Set[str] = set()
    regular = False
    for name, value in headers:
        if name != name.lower():
            return f"uppercase field name {name!r} (§8.1.2)"
        if name[:1] != ":":
            regular = True
            if name in _CONNECTION_FIELDS or (name == "te" and value != "trailers"):
                return f"connection-specific field {name!r} (§8.1.2.2)"
        elif regular:
            return f"pseudo-header {name!r} after a regular field (§8.1.2.1)"
        elif name not in allowed or name in pseudo:
            return f"pseudo-header {name!r} unknown, repeated or misplaced (§8.1.2.1)"
        else:
            pseudo.add(name)
    if not required <= pseudo:
        return f"{kind} without {', '.join(sorted(required - pseudo))} (§8.1.2.3, §8.1.2.4)"
    return None


#: Builds a :class:`HeaderBlock` from a tuple of its fields without the
#: Python-level ``__new__`` a named tuple's constructor is: one call
#: fewer per header block.
_new_record = tuple.__new__


class H2Connection:
    """One endpoint of an HTTP/2 connection."""

    #: Octets a DATA frame occupies on the wire beyond its payload.
    _DATA_OVERHEAD = _FRAME_HEADER

    def __init__(
        self,
        endpoint: Endpoint,
        role: str,
        settings: Optional[Settings] = None,
        chunk_size: int = 16_384,
        tracer=None,
    ):
        if role not in ("client", "server"):
            raise ProtocolError(f"invalid role {role!r}")
        self.role = role
        self._endpoint = endpoint
        endpoint.on_data = self._on_tcp_data
        endpoint.on_record = self._on_data_record
        endpoint.on_writable = self._pump

        #: Optional event tracer (``repro.trace``).  ``None`` keeps the
        #: hot paths at one attribute check; the label identifies this
        #: endpoint in trace events (derived from the TCP endpoint name).
        self._tracer = tracer
        self._trace_name = getattr(endpoint, "name", role)

        self.local_settings = settings or Settings()
        self.remote_settings = Settings()
        self._reader = FrameReader(
            expect_preface=(role == "server"),
            max_frame_size=self.local_settings._values[MAX_FRAME_SIZE],
        )
        # The encoder works within the peer's table, 4 096 octets until
        # its SETTINGS say otherwise (§6.5.2); the decoder within ours.
        self._encoder = HpackEncoder(self.remote_settings.header_table_size)
        self._decoder = HpackDecoder(self.local_settings.header_table_size)

        self.streams: Dict[int, H2Stream] = {}
        self.priority_tree = PriorityTree()
        #: ``None``: pure RFC 7540 order, ``priority_tree`` picks and is
        #: charged.  Otherwise an object with the three methods of
        #: :class:`~repro.server.scheduler.InterleavingScheduler`.
        self.scheduler = None
        self._chunk_size = chunk_size

        #: The highest stream id opened or reserved so far, ``[even, odd]``:
        #: a server's ids are even, a client's odd (§5.1.1).
        self._highest_id = [0, -1]
        self._own_parity = 1 if role == "client" else 0
        # Connection flow control (RFC 7540 §6.9): both windows start at
        # 65 535 whatever the SETTINGS say (§6.9.2).  The receive side
        # keeps the capacity this endpoint has advertised and the octets
        # received since it last credited the peer.
        self._conn_send_window = DEFAULT_INITIAL_WINDOW_SIZE
        self._conn_recv_capacity = DEFAULT_INITIAL_WINDOW_SIZE
        self._conn_recv_unacked = 0
        #: Control frames in send order: packed bytes, and header blocks
        #: as records.
        self._control_queue: Deque[Union[bytes, HeaderBlock]] = deque()
        #: Octets of the queue's first record already written (a record
        #: the send buffer could not take whole goes in as it fits).
        self._control_head_written = 0
        #: Streams with body left to send: every stream handed body
        #: bytes (or a pending zero-length END_STREAM) that has not yet
        #: drained, finished, or been reset — including those blocked
        #: on flow control or a pause point.
        self._send_candidates: Set[int] = set()
        #: The candidates that can send *now*, kept live: a change to
        #: one stream's inputs re-derives that stream alone
        #: (``_refresh_ready``); only a connection-wide transition — the
        #: connection window crossing zero, a new initial window size —
        #: re-derives every candidate.  The scheduler picks from this.
        self._ready: Set[int] = set()
        #: A header block received as bytes and awaiting CONTINUATION
        #: frames: ``((stream id, flags, priority, promised id), block so
        #: far)``, the first four fields of its :class:`HeaderBlock`.
        self._header_fragments: Optional[Tuple[tuple, bytearray]] = None
        self._pumping = False

        # --- event callbacks (set by server / browser layers) ---
        self.on_request: Optional[Callable[[int, List[Header], PriorityData], None]] = None
        self.on_response: Optional[Callable[[int, List[Header]], None]] = None
        self.on_informational: Optional[Callable[[int, List[Header]], None]] = None
        #: Receives ``(stream_id, span)`` per DATA frame: the payload by
        #: reference, ``len(span)`` octets of it.
        self.on_data: Optional[Callable[[int, Span], None]] = None
        self.on_stream_end: Optional[Callable[[int], None]] = None
        self.on_push_promise: Optional[Callable[[int, int, List[Header]], None]] = None

        # --- wire statistics ---
        self.frames_sent = 0
        self.frames_received = 0

        self._start()

    # ------------------------------------------------------------------
    # connection startup
    # ------------------------------------------------------------------
    def _start(self) -> None:
        if self.role == "client":
            self._control_queue.append(CONNECTION_PREFACE)
        self._queue_wire("SETTINGS", 0, pack_settings(0, 0, self.local_settings.as_dict()))
        if self.role == "client":
            # Chromium-style: immediately enlarge the connection window.
            # A server advertises nothing, so it keeps 65 535.
            grow = _CONNECTION_RECV_WINDOW - self._conn_recv_capacity
            self._conn_recv_capacity = _CONNECTION_RECV_WINDOW
            self._queue_wire("WINDOW_UPDATE", 0, pack_window_update(0, 0, grow))
        self._pump()

    # ------------------------------------------------------------------
    # public sending API
    # ------------------------------------------------------------------
    def request(
        self,
        headers: List[Header],
        priority: Optional[PriorityData] = None,
        end_stream: bool = True,
    ) -> int:
        """Client: open a new stream carrying a request."""
        if self.role != "client":
            raise ProtocolError("only clients send requests")
        stream_id = self._highest_id[1] + 2
        stream = self._open_stream(stream_id, _SEND_HEADERS)
        if end_stream:
            stream.state = _TRANSITIONS[stream.state, _SEND_END_STREAM]
        self.priority_tree.insert(
            stream_id,
            depends_on=priority.depends_on if priority else 0,
            weight=priority.weight if priority else DEFAULT_WEIGHT,
            exclusive=priority.exclusive if priority else False,
        )
        fields: List[Header] = []
        self._queue_header_block(
            stream_id,
            _END_HEADERS_END_STREAM_RAW if end_stream else _END_HEADERS_RAW,
            self._encoder.encode(headers, (), fields),
            fields,
            priority,
        )
        self._pump()
        return stream_id

    def respond(self, stream_id: int, headers: List[Header], end_stream: bool = False) -> None:
        """Server: send response HEADERS on an existing stream."""
        stream = self._require_stream(stream_id)
        state = _TRANSITIONS[stream.state, _SEND_HEADERS]
        if state < 0:
            self._misuse(stream, _SEND_HEADERS)
        stream.state = state
        fields: List[Header] = []
        self._queue_header_block(
            stream_id,
            _END_HEADERS_END_STREAM_RAW if end_stream else _END_HEADERS_RAW,
            self._encoder.encode(headers, (), fields),
            fields,
        )
        if end_stream:
            # Open or half-closed (remote) now: either admits it.
            stream.state = state = _TRANSITIONS[state, _SEND_END_STREAM]
            if state is _CLOSED:
                if self._tracer is not None:
                    self._tracer.emit(StreamClosed, self._trace_name, stream_id)
                self.priority_tree.remove(stream_id)
        self._pump()

    def respond_informational(self, stream_id: int, headers: List[Header]) -> None:
        """Server: send an interim (1xx) HEADERS block on an open stream.

        Informational responses — 103 Early Hints here — precede the
        final HEADERS, never carry END_STREAM, and leave the stream
        state untouched (RFC 9113 §8.1): the final ``respond`` call
        still records the response headers and closes the stream.  The
        table still decides whether HEADERS may be sent at all.
        """
        if self.role != "server":
            raise ProtocolError("only servers send interim responses")
        stream = self._require_stream(stream_id)
        if _TRANSITIONS[stream.state, _SEND_HEADERS] < 0:
            self._misuse(stream, _SEND_HEADERS)
        fields: List[Header] = []
        self._queue_header_block(
            stream_id, _END_HEADERS_RAW, self._encoder.encode(headers, (), fields), fields
        )
        self._pump()

    def send_body(self, stream_id: int, data: Body, end_stream: bool = False) -> None:
        """Queue body bytes; the data scheduler decides emission order."""
        stream = self._require_stream(stream_id)
        stream.queue_body(data, end_stream)
        self._send_candidates.add(stream_id)
        self._refresh_ready((stream_id,))
        self._pump()

    def pause_stream_at(self, stream_id: int, offset: Optional[int]) -> None:
        """Cap how far into its body a stream may send; ``None`` lifts it."""
        self._require_stream(stream_id).pause_at = offset
        self._refresh_ready((stream_id,))

    def push(
        self,
        parent_stream_id: int,
        request_headers: List[Header],
        depends_on: Optional[int] = None,
        weight: int = DEFAULT_WEIGHT,
    ) -> int:
        """Server: reserve a pushed stream via PUSH_PROMISE.

        The promised stream becomes a child of the parent stream in the
        priority tree, replicating h2o's default placement (Fig. 5a).
        """
        if self.role != "server":
            raise ProtocolError("only servers push")
        if not self.remote_settings._values[ENABLE_PUSH]:
            raise ProtocolError("peer disabled Server Push (SETTINGS_ENABLE_PUSH=0)")
        parent = self._require_stream(parent_stream_id)
        if _TRANSITIONS[parent.state, StreamEvent.SEND_PUSH_PROMISE] < 0:
            self._misuse(parent, StreamEvent.SEND_PUSH_PROMISE)
        promised_id = self._highest_id[0] + 2
        self._open_stream(promised_id, _RESERVE_LOCAL)
        self.priority_tree.insert(
            promised_id,
            depends_on=parent_stream_id if depends_on is None else depends_on,
            weight=weight,
        )
        fields: List[Header] = []
        self._queue_header_block(
            parent_stream_id,
            _END_HEADERS_RAW,
            self._encoder.encode(request_headers, (), fields),
            fields,
            promised_id=promised_id,
        )
        if self._tracer is not None:
            self._tracer.emit(PushPromised, self._trace_name, parent_stream_id, promised_id)
        self._pump()
        return promised_id

    def reset_stream(self, stream_id: int, code: ErrorCode = ErrorCode.CANCEL) -> None:
        """Send RST_STREAM (e.g. a client cancelling an unwanted push)."""
        stream = self._require_stream(stream_id)
        self._reset(stream, StreamEvent.SEND_RST_STREAM, code)
        self.priority_tree.remove(stream_id)
        self._queue_wire("RST_STREAM", stream_id, pack_rst_stream(stream_id, 0, code))
        self._pump()

    def send_priority(self, stream_id: int, priority: PriorityData) -> None:
        self._queue_wire("PRIORITY", stream_id, pack_priority(stream_id, 0, priority))
        self._pump()

    def ping(self, opaque: bytes = b"\x00" * 8) -> None:
        self._queue_wire("PING", 0, pack_ping(0, 0, opaque))
        self._pump()

    def release(self) -> None:
        """Cut the references that make a finished connection cyclic.

        The transport endpoint holds this connection's bound methods,
        the ``on_*`` callbacks lead back to the layer above (which
        holds this connection), and the priority tree links both ways.
        Frame counters and stream state stay readable.
        """
        self._endpoint.release()
        self.on_request = self.on_response = self.on_informational = None
        self.on_data = self.on_stream_end = self.on_push_promise = None
        self.priority_tree.release()

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def _queue_wire(self, frame_name: str, stream_id: int, wire: bytes) -> None:
        """Queue one packed control frame (``frame_name`` is its type's
        name, for the trace)."""
        self._control_queue.append(wire)
        self.frames_sent += 1
        if self._tracer is not None:
            self._tracer.emit(FrameSent, self._trace_name, frame_name, stream_id, len(wire))

    def _queue_header_block(
        self,
        stream_id: int,
        flags: int,
        block: bytes,
        headers: List[Header],
        priority: Optional[PriorityData] = None,
        promised_id: Optional[int] = None,
    ) -> None:
        """Queue a HEADERS frame — a PUSH_PROMISE for ``promised_id`` —
        as one :class:`HeaderBlock` record of the encoded ``block`` and
        the header list the encoder gave for it.  A block the peer's
        SETTINGS_MAX_FRAME_SIZE cannot hold is sized as its first
        fragment without END_HEADERS, then CONTINUATION frames, the last
        one with END_HEADERS.  Each frame is counted and traced here as
        it would be if it were queued as bytes."""
        max_size = self.remote_settings._values[MAX_FRAME_SIZE]
        if promised_id is None:
            name = "HEADERS"
            # The first frame's payload: the priority block, if any,
            # then the block.
            length = len(block) if priority is None else 5 + len(block)
        else:
            name = "PUSH_PROMISE"
            length = 4 + len(block)  # after the promised stream id
        if length <= max_size:
            sizes = (_FRAME_HEADER + length,)
        else:
            flags &= ~_END_HEADERS_RAW
            full, last = divmod(length, max_size)
            if not last:
                full, last = full - 1, max_size
            sizes = (_FRAME_HEADER + max_size,) * full + (_FRAME_HEADER + last,)
        self._control_queue.append(
            _new_record(
                HeaderBlock, (stream_id, flags, priority, promised_id, block, headers, sizes)
            )
        )
        self.frames_sent += len(sizes)
        if self._tracer is not None:
            for size in sizes:
                self._tracer.emit(FrameSent, self._trace_name, name, stream_id, size)
                name = "CONTINUATION"

    def _pump(self) -> None:
        """Write as much as the socket buffer allows: control, then data."""
        if self._pumping:
            return
        self._pumping = True
        try:
            if self._control_queue:
                self._flush_control()
            if self._ready and not self._control_queue:
                self._flush_data()
        finally:
            self._pumping = False

    def _flush_control(self) -> None:
        """Write queued control frames while the send buffer has room.

        A control frame may exceed the room left: as much of it as fits
        is written now, the rest on writable.  A header block record is
        written the same way, so that its octets enter the stream at the
        offsets and times its frames' bytes would: the part that fits
        goes in as a record the receiver ignores (``None``), the rest as
        the record itself.
        """
        queue = self._control_queue
        # Direct half-connection access (Endpoint.send_buffer_space /
        # send are thin wrappers; this loop runs per flushed frame).
        half = self._endpoint._out
        while queue:
            payload = queue[0]
            space = half._max_buffer - half._buffered
            if space <= 0:
                return
            if payload.__class__ is bytes:
                accepted = half.enqueue(payload)
                if accepted < len(payload):
                    queue[0] = payload[accepted:]
                    return
            else:
                size = sum(payload.sizes) - self._control_head_written
                record = payload
                if size > space:
                    size, record = space, None
                if not half.enqueue_record(size, record):
                    # Sized to the free space just read, like a DATA
                    # record: a refusal would lose the block silently.
                    raise ProtocolError(
                        f"transport refused a {size}-octet header block record on stream "
                        f"{payload.stream_id} ({half.buffer_space} octets of send-buffer space)"
                    )
                if record is None:
                    self._control_head_written += size
                    return
                self._control_head_written = 0
            queue.popleft()

    def _refresh_ready(self, stream_ids: Iterable[int]) -> None:
        """Re-derive membership of the live ready set for ``stream_ids``.

        Ready means :meth:`H2Stream.wants_to_send` and the connection
        window admits it: at or below zero only a zero-length
        END_STREAM frame may go out.
        """
        streams = self.streams
        ready = self._ready
        window_open = self._conn_send_window > 0
        for stream_id in stream_ids:
            stream = streams[stream_id]
            if (window_open or not stream._queued_bytes) and stream.wants_to_send():
                ready.add(stream_id)
            else:
                ready.discard(stream_id)

    def _forget_sender(self, stream_id: int) -> None:
        """The stream has nothing left to send (done, drained or reset)."""
        self._send_candidates.discard(stream_id)
        self._ready.discard(stream_id)

    def _flush_data(self) -> None:
        """Cut DATA frames while a stream is ready and the socket has room.

        One pass of the loop is one frame, and one call into each thing
        it touches: the scheduler picks, :meth:`H2Stream.take` cuts,
        ``_emit_data`` writes, the scheduler is told.
        """
        ready = self._ready
        # Direct half-connection access (transport.Half's send-buffer
        # fields): the endpoint's send_buffer_space is a property chain,
        # and this is the hottest loop in a replay.
        half = self._endpoint._out
        streams = self.streams
        scheduler = self.scheduler
        tree_select = self.priority_tree.select
        charge = self.priority_tree.charge
        emit = self._emit_data
        max_frame = self.remote_settings._values[MAX_FRAME_SIZE]
        chunk_size = self._chunk_size
        overhead = self._DATA_OVERHEAD
        while ready:
            budget = half._max_buffer - half._buffered - overhead
            if budget <= 0:
                return
            # TCP_NOTSENT_LOWAT-style pacing: stop queueing DATA once
            # the unsent socket backlog covers two congestion windows.
            # With the clean-path window (>= IW10 = 14.6 KB, which only
            # grows without loss) the threshold exceeds the 16 KiB send
            # buffer and never binds — bit-identical behaviour.  When
            # loss collapses cwnd, the backlog cap keeps scheduling
            # decisions close to the wire, so priority changes are not
            # stranded behind kilobytes of already-committed DATA.
            if half._buffered >= 2.0 * half._cc.cwnd:
                return
            if scheduler is None:
                stream_id = tree_select(ready)
            else:
                stream_id = scheduler.select(self, ready)
            if stream_id is None:
                return
            stream = streams[stream_id]
            # min(chunk size, socket space, peer's max frame, connection
            # window floored at zero), as comparisons.
            if chunk_size < budget:
                budget = chunk_size
            if max_frame < budget:
                budget = max_frame
            available = self._conn_send_window
            if available < budget:
                budget = available if available > 0 else 0
            span, end, more = stream.take(budget)
            sent = span.stop - span.start
            if not sent and not end:
                # Stream was ready only for a pause boundary; try others.
                return
            # ``take`` consumed the stream window; the connection's is
            # ours (the budget was capped by it above).
            self._conn_send_window = available = available - sent
            emit(stream_id, span, end)
            self.frames_sent += 1
            if self._tracer is not None:
                self._tracer.emit(FrameSent, self._trace_name, "DATA", stream_id, sent + overhead)
            if scheduler is None:
                charge(stream_id, sent)
            else:
                # The hook may change other streams' readiness (lift a
                # pause); that path updates ``ready`` itself, so only
                # this frame's stream is re-derived here.
                scheduler.on_data_sent(self, stream_id, sent, end)
            if end:
                self._forget_sender(stream_id)
                state = _TRANSITIONS[stream.state, _SEND_END_STREAM]
                if state < 0:
                    self._misuse(stream, _SEND_END_STREAM)
                stream.state = state
                if state is _CLOSED:
                    if self._tracer is not None:
                        self._tracer.emit(StreamClosed, self._trace_name, stream_id)
                    self.priority_tree.remove(stream_id)
            elif not stream._queued_bytes:
                # Drained without END_STREAM: nothing to send until the
                # application queues more body (send_body re-adds).
                self._forget_sender(stream_id)
            elif (not more or stream.pause_at is not None) and not stream.wants_to_send():
                # Stream window or pause cap reached.  ``more`` is
                # ``take``'s answer from before the hook ran: a true one
                # on a stream with no pause point still holds (a hook can
                # only reset the stream, caught above, or set a pause);
                # anything else is asked again.
                ready.discard(stream_id)
            if sent and available <= 0:
                # The connection window just closed: what stays ready is
                # whoever needs only a zero-length END_STREAM.
                self._refresh_ready(self._send_candidates)

    def _emit_data(self, stream_id: int, span: Span, end: bool) -> None:
        """Write one DATA frame: a record charged header + payload, which
        the peer's ``_on_data_record`` receives when its last octet does."""
        size = _FRAME_HEADER + span.stop - span.start
        if not self._endpoint._out.enqueue_record(
            size, (stream_id, span, _END_STREAM_RAW if end else 0)
        ):
            # ``_flush_data`` sized the frame to the socket space; the
            # windows and the body cursor have already moved.
            raise ProtocolError(
                f"transport refused a {size}-octet DATA record on stream {stream_id} "
                f"({self._endpoint._out.buffer_space} octets of send-buffer space)"
            )

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_tcp_data(self, data: bytes) -> None:
        """In-order control-plane bytes (and any DATA a peer sent as bytes)."""
        tracer = self._tracer
        handlers = self._HANDLERS
        for frame in self._reader.feed(data):
            cls = frame.__class__
            if cls is DataFrame and self._header_fragments is None:
                # Only a foreign peer frames DATA as bytes; it joins the
                # record path (which counts, traces and pumps itself).
                # It may pad: the Pad Length octet and the padding count
                # against the receive windows too (§6.1).
                pad = frame.pad_length
                self._on_data_record(
                    (frame.stream_id, Span(frame.data), frame.flags),
                    0 if pad is None else 1 + pad,
                )
                continue
            self.frames_received += 1
            if tracer is not None:
                tracer.emit(
                    FrameReceived, self._trace_name, frame.TYPE.name, frame.stream_id,
                    frame.wire_size,
                )
            if self._header_fragments is not None and cls is not ContinuationFrame:
                raise ProtocolError("expected CONTINUATION frame")
            getattr(self, handlers[cls])(frame)
        # _pump is a no-op without queued control bytes or ready
        # streams; skipping it saves the call chain per received segment.
        if self._control_queue or self._ready:
            self._pump()

    def _on_data_record(
        self, record: Union[Tuple[int, Span, int], HeaderBlock, None], padding: int = 0
    ) -> None:
        """A record written by the peer arrived whole.

        A DATA frame from its ``_emit_data`` — a plain tuple — is
        accounted against the receive windows and handed to the
        application; END_STREAM closes the remote side.  ``padding`` is
        the octets of a padded frame's payload that are not data.  A
        :class:`HeaderBlock` goes to ``_on_header_block``; ``None``, the
        first part of a header block the peer's send buffer took in
        parts, is ignored as the bytes it stands for would have been.
        """
        if record.__class__ is not tuple:
            if record is not None:
                self._on_header_block(record)
            if self._control_queue or self._ready:
                self._pump()
            return
        stream_id, span, raw_flags = record
        self.frames_received += 1
        size = span.stop - span.start
        counted = size + padding
        if self._tracer is not None:
            self._tracer.emit(
                FrameReceived, self._trace_name, "DATA", stream_id, self._DATA_OVERHEAD + counted
            )
        stream = self.streams.get(stream_id)
        if stream is None or _TRANSITIONS[stream.state, _RECV_DATA] < 0:
            self._admit(stream_id, _RECV_DATA)  # raises, or the frame is ignored
        else:
            end = raw_flags & _END_STREAM_RAW
            # Count the octets against the stream's and the connection's
            # receive windows; credit a window back to full once more
            # than half of it is spent since the last credit (no stream
            # credit when the stream just ended).  More than the whole
            # window is DATA the peer was never offered (§6.9.1).
            unacked = stream.recv_unacked + counted
            capacity = self.local_settings._values[INITIAL_WINDOW_SIZE]
            if unacked * 2 > capacity:
                if unacked > capacity:
                    raise FlowControlError(
                        f"{unacked} DATA octets on stream {stream_id} exceed its "
                        f"{capacity}-octet window"
                    )
                stream.recv_unacked = 0
                if not end:
                    self._queue_wire(
                        "WINDOW_UPDATE", stream_id, pack_window_update(stream_id, 0, unacked)
                    )
            else:
                stream.recv_unacked = unacked
            unacked = self._conn_recv_unacked + counted
            capacity = self._conn_recv_capacity
            if unacked * 2 > capacity:
                if unacked > capacity:
                    raise FlowControlError(
                        f"{unacked} DATA octets exceed the {capacity}-octet connection window"
                    )
                self._conn_recv_unacked = 0
                self._queue_wire("WINDOW_UPDATE", 0, pack_window_update(0, 0, unacked))
            else:
                self._conn_recv_unacked = unacked
            if size and self.on_data is not None:
                self.on_data(stream_id, span)
            if end:
                self._end_remote(stream)
        if self._control_queue or self._ready:
            self._pump()

    def _on_header_block(self, record: HeaderBlock) -> None:
        """A header block is complete: a record the peer's
        ``_queue_header_block`` wrote, or one ``_handle_header_frame``
        gathered from bytes, whose frames ``_on_tcp_data`` has counted
        (``sizes`` is empty) and whose block is decoded here (``headers``
        is ``None``).  A HEADERS block is decoded whatever its stream's
        state, since it has changed the connection's HPACK context
        (§4.3); a PUSH_PROMISE only once the checks that refuse the
        frame undecoded have passed."""
        stream_id, flags, priority, promised_id, block, headers, sizes = record
        self.frames_received += len(sizes)
        if self._tracer is not None:
            name = "HEADERS" if promised_id is None else "PUSH_PROMISE"
            for size in sizes:
                self._tracer.emit(FrameReceived, self._trace_name, name, stream_id, size)
                name = "CONTINUATION"
        if promised_id is None:
            if priority is not None and self.role == "server":
                self._handle_priority(record)
            if headers is None:
                headers = self._decoder.decode(block)
                # Our own peer's header lists are well formed: only a
                # block received as bytes is checked, one that opens a
                # request or carries a response (not trailers).
                stream = self.streams.get(stream_id)
                if (
                    stream is None
                    if self.role == "server"
                    else stream is not None and stream.response_headers is None
                ):
                    malformed = _malformed(headers, self.role)
                    if malformed is not None:
                        raise StreamError(malformed, stream_id, ErrorCode.PROTOCOL_ERROR)
            self._finish_header_block(stream_id, headers, flags & _END_STREAM_RAW != 0)
            return
        if self.role != "client":
            raise ProtocolError("servers do not receive PUSH_PROMISE")
        if not self.local_settings._values[ENABLE_PUSH]:
            raise ProtocolError("PUSH_PROMISE after SETTINGS_ENABLE_PUSH=0 (§8.2)")
        if headers is None:
            headers = self._decoder.decode(block)
        parent = self.streams.get(stream_id)
        if parent is None or _TRANSITIONS[parent.state, _RECV_PUSH_PROMISE] < 0:
            self._admit(stream_id, _RECV_PUSH_PROMISE)
            return
        self._open_stream(promised_id, _RESERVE_REMOTE)
        if self.on_push_promise is not None:
            self.on_push_promise(stream_id, promised_id, headers)

    def _handle_header_frame(self, frame) -> None:
        """A HEADERS, PUSH_PROMISE or CONTINUATION frame received as
        bytes: the block is gathered until END_HEADERS, then finished
        as a record is, by ``_on_header_block``."""
        if frame.__class__ is ContinuationFrame:
            if self._header_fragments is None:
                raise ProtocolError("CONTINUATION without open header block")
            head, buffer = self._header_fragments
            if frame.stream_id != head[0]:
                raise ProtocolError("CONTINUATION on wrong stream")
            buffer += frame.header_block
            if not frame.flags & _END_HEADERS_RAW:
                return
            self._header_fragments = None
            block = bytes(buffer)
        else:
            if frame.__class__ is HeadersFrame:
                head = (frame.stream_id, frame.flags, frame.priority, None)
            else:
                head = (frame.stream_id, frame.flags, None, frame.promised_stream_id)
            block = frame.header_block
            if not frame.flags & _END_HEADERS_RAW:
                self._header_fragments = (head, bytearray(block))
                return
        self._on_header_block(_new_record(HeaderBlock, (*head, block, None, ())))

    #: Frame class -> the name of its handler: one lookup per frame
    #: received, and the handler is found on the instance, so a
    #: subclass's override is the one called.  DATA has no entry: it
    #: reaches the lookup only inside a header block, where the check
    #: before it has already refused it.
    _HANDLERS = {
        WindowUpdateFrame: "_handle_window_update",
        HeadersFrame: "_handle_header_frame",
        PushPromiseFrame: "_handle_header_frame",
        ContinuationFrame: "_handle_header_frame",
        SettingsFrame: "_handle_settings",
        RstStreamFrame: "_handle_rst",
        PriorityFrame: "_handle_priority",
        PingFrame: "_handle_ping",
        GoAwayFrame: "_handle_goaway",
    }

    def _handle_ping(self, frame: PingFrame) -> None:
        if not frame.flags & _ACK_RAW:
            self._queue_wire("PING", 0, pack_ping(0, _ACK_RAW, frame.opaque))

    def _handle_goaway(self, frame: GoAwayFrame) -> None:
        """GOAWAY (§6.8) needs no answer, and no endpoint here sends one."""

    def _handle_settings(self, frame: SettingsFrame) -> None:
        if frame.flags & _ACK_RAW:
            return
        old_window = self.remote_settings.initial_window_size
        if frame.superseded:
            # §6.5.3: values are processed in order, so an identifier's
            # earlier values must be valid too; the last one stands.
            for code, value in frame.superseded:
                self.remote_settings.apply({code: value})
                if code == HEADER_TABLE_SIZE:
                    # RFC 7541 §4.2: the encoder signals the smallest.
                    self._encoder.set_max_table_size(value)
        self.remote_settings.apply(frame.settings)
        new_window = self.remote_settings.initial_window_size
        if new_window != old_window:
            # §6.9.2: the change applies to every open stream's window;
            # it may drive a window negative, never past 2^31-1.
            delta = new_window - old_window
            for stream in self.streams.values():
                # A window is live where the table admits WINDOW_UPDATE.
                if _TRANSITIONS[stream.state, StreamEvent.RECV_WINDOW_UPDATE] >= 0:
                    window = stream.send_window + delta
                    if window > MAX_WINDOW_SIZE:
                        raise FlowControlError(
                            f"SETTINGS_INITIAL_WINDOW_SIZE {new_window} overflows "
                            f"stream {stream.stream_id}'s window"
                        )
                    stream.send_window = window
            self._refresh_ready(self._send_candidates)
        if HEADER_TABLE_SIZE in frame.settings:
            self._encoder.set_max_table_size(frame.settings[HEADER_TABLE_SIZE])
        self._queue_wire("SETTINGS", 0, pack_settings(0, _ACK_RAW, {}))

    def _finish_header_block(self, stream_id: int, headers: List[Header], end_stream: bool) -> None:
        """A HEADERS block is complete and ``headers`` is its list."""
        stream = self.streams.get(stream_id)
        if stream is None:
            if self.role == "client":
                raise ProtocolError(
                    f"HEADERS on stream {stream_id}: a server opens streams only by "
                    "PUSH_PROMISE (§8.2)"
                )
            stream = self._open_stream(stream_id, _RECV_HEADERS)
            if stream_id not in self.priority_tree:
                self.priority_tree.insert(stream_id)
        else:
            state = _TRANSITIONS[stream.state, _RECV_HEADERS]
            if state < 0:
                self._admit(stream_id, _RECV_HEADERS)
                return
            if self.role == "server" or stream.response_headers is not None:
                # A second block on an open request stream, or one after
                # the final response, is trailers, which must end the
                # stream (§8.1).  An interim response (1xx) sets no
                # ``response_headers``, so the final one still gets here.
                if not end_stream:
                    raise StreamError(
                        f"trailers without END_STREAM on stream {stream_id} (§8.1)",
                        stream_id,
                        ErrorCode.PROTOCOL_ERROR,
                    )
                stream.state = state
                self._end_remote(stream)
                return
            stream.state = state
        if self.role == "server":
            if end_stream:
                self._end_remote(stream)
            if self.on_request is not None:
                self.on_request(stream_id, headers, PriorityData())
        else:
            for name, value in headers:
                if name != ":status":
                    continue
                if value[:1] == "1":
                    # Interim response (e.g. 103 Early Hints): surface
                    # it without recording it as the response — the
                    # final HEADERS follow.
                    if self.on_informational is not None:
                        self.on_informational(stream_id, headers)
                    return
                break
            stream.response_headers = headers
            if self.on_response is not None:
                self.on_response(stream_id, headers)
            if end_stream:
                self._end_remote(stream)

    def _end_remote(self, stream: H2Stream) -> None:
        """The peer's END_STREAM, on a HEADERS or DATA frame the table
        admitted: every state that admits those admits it too."""
        stream.state = state = _TRANSITIONS[stream.state, _RECV_END_STREAM]
        if state is _CLOSED:
            if self._tracer is not None:
                self._tracer.emit(StreamClosed, self._trace_name, stream.stream_id)
            self.priority_tree.remove(stream.stream_id)
        if self.on_stream_end is not None:
            self.on_stream_end(stream.stream_id)

    def _handle_window_update(self, frame: WindowUpdateFrame) -> None:
        # Frame parsing has refused a zero increment (§6.9); what is
        # left is §6.9.1's ceiling on the window it grows.
        stream_id = frame.stream_id
        if stream_id == 0:
            was_closed = self._conn_send_window <= 0
            window = self._conn_send_window + frame.increment
            if window > MAX_WINDOW_SIZE:
                raise FlowControlError("WINDOW_UPDATE overflows the connection window")
            self._conn_send_window = window
            if was_closed and window > 0:
                self._refresh_ready(self._send_candidates)
            return
        stream = self._admit(stream_id, StreamEvent.RECV_WINDOW_UPDATE)
        if stream is None:
            return
        window = stream.send_window + frame.increment
        if window > MAX_WINDOW_SIZE:
            raise FlowControlError(f"WINDOW_UPDATE overflows stream {stream_id}'s window")
        stream.send_window = window
        self._refresh_ready((stream_id,))

    def _handle_rst(self, frame: RstStreamFrame) -> None:
        stream_id = frame.stream_id
        stream = self._admit(stream_id, StreamEvent.RECV_RST_STREAM)
        if stream is None:
            return
        self._reset(stream, StreamEvent.RECV_RST_STREAM, frame.error_code)
        self.priority_tree.remove(stream_id)
        if self.scheduler is not None:
            self.scheduler.on_stream_reset(self, stream_id)

    def _handle_priority(self, frame) -> None:
        """A PRIORITY frame, or the priority block of a HEADERS frame."""
        priority = frame.priority
        self.priority_tree.reprioritize(
            frame.stream_id, priority.depends_on, priority.weight, priority.exclusive
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _open_stream(self, stream_id: int, event: StreamEvent) -> H2Stream:
        """Create ``stream_id`` out of idle by ``event``, under the one
        stream-id rule (§5.1.1): ids of each parity increase, closing the
        idle ids they skip, and a peer opens only ids of its own parity."""
        parity = stream_id & 1
        by_peer = event is _RECV_HEADERS or event is _RESERVE_REMOTE
        if stream_id <= self._highest_id[parity] or (parity == self._own_parity) == by_peer:
            raise ProtocolError(f"stream id {stream_id} breaks §5.1.1")
        self._highest_id[parity] = stream_id
        window = self.remote_settings._values[INITIAL_WINDOW_SIZE]
        self.streams[stream_id] = stream = H2Stream(stream_id, window, _TRANSITIONS[_IDLE, event])
        if self._tracer is not None:
            pushed = event is _RESERVE_LOCAL or event is _RESERVE_REMOTE
            self._tracer.emit(StreamOpened, self._trace_name, stream_id, pushed)
        return stream

    def _admit(self, stream_id: int, event: StreamEvent) -> Optional[H2Stream]:
        """The stream a received frame is for, if the table admits
        ``event`` on it; ``None`` if §5.1 ignores the frame; else raise.
        An id no stream was opened for is closed at or below the highest
        id of its parity, idle above it (§5.1.1); stream 0 is idle."""
        stream = self.streams.get(stream_id)
        if stream is not None:
            state = stream.state
        else:
            state = _CLOSED if 0 < stream_id <= self._highest_id[stream_id & 1] else _IDLE
        outcome = _TRANSITIONS[state, event]
        if outcome >= 0:
            return stream
        message = f"{event.name} on stream {stream_id} in state {state.name} (§5.1)"
        if outcome == Refusal.STREAM_CLOSED:
            raise StreamError(message, stream_id, ErrorCode.STREAM_CLOSED)
        if outcome == Refusal.CONNECTION_STREAM_CLOSED:
            raise ProtocolError(message, ErrorCode.STREAM_CLOSED)
        if outcome == Refusal.IGNORE:
            return None
        raise ProtocolError(message, ErrorCode.PROTOCOL_ERROR)

    def _reset(self, stream: H2Stream, event: StreamEvent, code: ErrorCode) -> None:
        """RST_STREAM sent, or received and admitted (every state a stream
        can be in admits it): close the stream and drop its body."""
        state = _TRANSITIONS[stream.state, event]
        if state is not stream.state and self._tracer is not None:  # it was open
            self._tracer.emit(StreamReset, self._trace_name, stream.stream_id, code.name)
        stream.state = state
        stream.reset_code = code
        stream.drop_body()
        self._forget_sender(stream.stream_id)

    def _misuse(self, stream: H2Stream, event: StreamEvent) -> None:
        """This endpoint was asked for a transition the table refuses."""
        message = f"{event.name} on stream {stream.stream_id} in state {stream.state.name}"
        raise StreamError(message, stream.stream_id)

    def _require_stream(self, stream_id: int) -> H2Stream:
        stream = self.streams.get(stream_id)
        if stream is None:
            raise StreamError(f"unknown stream {stream_id}", stream_id)
        return stream
