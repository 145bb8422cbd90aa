"""Per-stream state (RFC 7540 §5.1).

Each :class:`H2Stream` tracks the RFC lifecycle plus the send-side
machinery the connection's pump needs: the body and a cursor into it,
an optional *pause point* (used by the interleaving scheduler to stop
the HTML stream at a byte offset), and two flow-control counts as plain
ints: ``send_window``, the octets the peer still admits (RFC 7540
§6.9.1; a SETTINGS decrease can drive it negative, §6.9.2), and
``recv_unacked``, the octets received since this endpoint last credited
the stream.  The connection owns every window rule; the stream only
stores the counts.  The body is never cut up: :meth:`H2Stream.take`
hands the pump a :class:`~repro.span.Span` of it, advances the cursor
and consumes the stream's send window — one call per DATA frame.

Hot-path note: :meth:`wants_to_send` is the one definition of stream
readiness — the connection re-evaluates it for a stream whenever one
of its inputs (queue, send window, pause point, state) changes.
:meth:`take` reports the same answer for the frame it just cut
(``more``), so the pump only asks again where a hook may have moved an
input in between.  The class uses ``__slots__`` and keeps these methods
free of property indirection.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import StreamError
from ..span import Span
from .constants import ErrorCode, StreamState

Header = Tuple[str, str]

_IDLE = StreamState.IDLE
_OPEN = StreamState.OPEN
_RESERVED_LOCAL = StreamState.RESERVED_LOCAL
_RESERVED_REMOTE = StreamState.RESERVED_REMOTE
_CLOSED = StreamState.CLOSED
_HALF_CLOSED_LOCAL = StreamState.HALF_CLOSED_LOCAL
_HALF_CLOSED_REMOTE = StreamState.HALF_CLOSED_REMOTE


class H2Stream:
    """One HTTP/2 stream as seen by one endpoint."""

    __slots__ = (
        "stream_id",
        "state",
        "send_window",
        "recv_unacked",
        "request_headers",
        "response_headers",
        "_body",
        "_cursor",
        "_queued_bytes",
        "_end_after_queue",
        "bytes_sent",
        "pause_at",
        "bytes_received",
        "is_pushed",
        "reset_code",
        "tracer",
        "trace_conn",
    )

    def __init__(self, stream_id: int, initial_send_window: int):
        self.stream_id = stream_id
        self.state = _IDLE
        self.send_window = initial_send_window
        self.recv_unacked = 0

        #: Request/response headers seen on this stream.
        self.request_headers: Optional[List[Header]] = None
        self.response_headers: Optional[List[Header]] = None

        # --- send-side body: ``_body[_cursor:_cursor + _queued_bytes]``
        # is what the pump has not taken yet ---
        self._body = b""
        self._cursor = 0
        self._queued_bytes = 0
        self._end_after_queue = False
        #: Bytes of the body already handed to the connection pump.
        self.bytes_sent = 0
        #: Absolute body offset the pump must not exceed (None = no cap).
        #: On a live connection set it through
        #: ``H2Connection.pause_stream_at``, which re-derives readiness.
        self.pause_at: Optional[int] = None

        # --- receive side ---
        self.bytes_received = 0
        #: True when this stream was created by a PUSH_PROMISE.
        self.is_pushed = False
        #: Error code if reset, else None.
        self.reset_code: Optional[ErrorCode] = None

        #: Optional event tracer (set by the owning connection when
        #: tracing is on) and its connection label for event payloads.
        self.tracer = None
        self.trace_conn = ""

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------
    # Every opening transition leaves IDLE: an identity test, where a
    # set of allowed states would hash the enum (a Python-level call)
    # once per stream.
    def open_local(self) -> None:
        if self.state is not _IDLE:
            self._invalid_transition(_OPEN)
        self.state = _OPEN
        if self.tracer is not None:
            self.tracer.stream_opened(self.trace_conn, self.stream_id, False)

    def open_remote(self) -> None:
        if self.state is not _IDLE:
            self._invalid_transition(_OPEN)
        self.state = _OPEN
        if self.tracer is not None:
            self.tracer.stream_opened(self.trace_conn, self.stream_id, False)

    def reserve_local(self) -> None:
        if self.state is not _IDLE:
            self._invalid_transition(_RESERVED_LOCAL)
        self.state = _RESERVED_LOCAL
        if self.tracer is not None:
            self.tracer.stream_opened(self.trace_conn, self.stream_id, True)

    def reserve_remote(self) -> None:
        if self.state is not _IDLE:
            self._invalid_transition(_RESERVED_REMOTE)
        self.state = _RESERVED_REMOTE
        if self.tracer is not None:
            self.tracer.stream_opened(self.trace_conn, self.stream_id, True)

    def close_local(self) -> None:
        """We sent END_STREAM."""
        state = self.state
        if state is _OPEN or state is _RESERVED_LOCAL:
            self.state = _HALF_CLOSED_LOCAL
        elif state is _HALF_CLOSED_REMOTE:
            self.state = _CLOSED
            if self.tracer is not None:
                self.tracer.stream_closed(self.trace_conn, self.stream_id)
        elif state is not _CLOSED:
            raise StreamError(
                f"cannot close local side from {self.state}", self.stream_id
            )

    def close_remote(self) -> None:
        """Peer sent END_STREAM."""
        state = self.state
        if state is _OPEN or state is _RESERVED_REMOTE:
            self.state = _HALF_CLOSED_REMOTE
        elif state is _HALF_CLOSED_LOCAL:
            self.state = _CLOSED
            if self.tracer is not None:
                self.tracer.stream_closed(self.trace_conn, self.stream_id)
        elif state is not _CLOSED:
            raise StreamError(
                f"cannot close remote side from {self.state}", self.stream_id
            )

    def reset(self, code: ErrorCode) -> None:
        was_closed = self.state is _CLOSED
        self.state = _CLOSED
        self.reset_code = code
        self._body = b""
        self._cursor = 0
        self._queued_bytes = 0
        if self.tracer is not None and not was_closed:
            self.tracer.stream_reset(self.trace_conn, self.stream_id, code.name)

    @property
    def closed(self) -> bool:
        return self.state is _CLOSED

    def _invalid_transition(self, target: StreamState) -> None:
        raise StreamError(f"invalid transition {self.state} -> {target}", self.stream_id)

    # ------------------------------------------------------------------
    # send-side body
    # ------------------------------------------------------------------
    def queue_body(self, data: bytes, end_stream: bool) -> None:
        if self._end_after_queue:
            raise StreamError("body already finished", self.stream_id)
        if data:
            if self._queued_bytes:
                # A further write behind an undrained one: the only
                # place body bytes are copied, and no server here does it.
                cursor = self._cursor
                data = self._body[cursor : cursor + self._queued_bytes] + data
            self._body = data
            self._cursor = 0
            self._queued_bytes = len(data)
        if end_stream:
            self._end_after_queue = True

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    def sendable_bytes(self) -> int:
        """Bytes the pump may emit now: queue, window, and pause cap."""
        window = self.send_window
        limit = self._queued_bytes if self._queued_bytes < window else window
        if limit < 0:
            limit = 0
        pause_at = self.pause_at
        if pause_at is not None:
            head = pause_at - self.bytes_sent
            if head < limit:
                limit = head if head > 0 else 0
        return limit

    def wants_to_send(self) -> bool:
        """True when the pump should consider this stream.

        A stream with an empty queue that has finished queueing still
        wants one zero-length END_STREAM frame if nothing was sent yet.
        """
        state = self.state
        if state is _CLOSED:
            return False
        if self._queued_bytes > 0:
            return self.sendable_bytes() > 0
        return self._end_after_queue and not (
            state is _HALF_CLOSED_LOCAL or state is _CLOSED
        )

    def take(self, budget: int) -> Tuple[Span, bool, bool]:
        """Take the next DATA payload, at most ``budget`` bytes of it.

        One call does what the pump needs per frame: caps the size by
        queue, stream window and pause point (as :meth:`sendable_bytes`
        does), advances the cursor and consumes the *stream* send window
        — the connection window is the caller's.  Returns ``(span of
        the body, end_stream, more)``; ``more`` is
        :meth:`wants_to_send` as of this return, for a frame that did
        not end the stream.
        """
        queued = self._queued_bytes
        window = self.send_window
        size = queued if queued < window else window
        if budget < size:
            size = budget
        if size < 0:
            size = 0
        sent = self.bytes_sent
        pause_at = self.pause_at
        if pause_at is not None and pause_at - sent < size:
            size = pause_at - sent if pause_at > sent else 0
        cursor = self._cursor
        self._cursor = stop = cursor + size
        self._queued_bytes = queued = queued - size
        self.bytes_sent = sent = sent + size
        self.send_window = window = window - size
        more = queued > 0 and window > 0 and (pause_at is None or pause_at > sent)
        end = self._end_after_queue and not queued
        return Span(self._body, cursor, stop), end, more
