"""Per-stream state and the one table of its transitions (RFC 7540 §5.1).

:data:`TRANSITIONS` is all of §5.1: for every ``(state, event)`` pair,
the next state or a :class:`Refusal` (a negative int).  States and
events are small ints, so a lookup hashes in C and makes no
Python-level call.  :class:`~repro.h2.connection.H2Connection` owns
every transition — a table read and a field write — and the stream-id
rule of §5.1.1; nothing here changes a stream's state.

Each :class:`H2Stream` also carries the send-side machinery the
connection's pump needs: the body and a cursor into it, an optional
*pause point* (used by the interleaving scheduler to stop the HTML
stream at a byte offset), and two flow-control counts as plain ints:
``send_window``, the octets the peer still admits (RFC 7540 §6.9.1; a
SETTINGS decrease can drive it negative, §6.9.2), and ``recv_unacked``,
the octets received since this endpoint last credited the stream.  The
connection owns every window rule; the stream only stores the counts.
The body is never cut up: :meth:`H2Stream.take` hands the pump a
:class:`~repro.span.Span` of it, advances the cursor and consumes the
stream's send window — one call per DATA frame.

Hot-path note: :meth:`wants_to_send` is the one definition of stream
readiness — the connection re-evaluates it for a stream whenever one
of its inputs (queue, send window, pause point, state) changes.
:meth:`take` reports the same answer for the frame it just cut
(``more``), so the pump only asks again where a hook may have moved an
input in between.  The class uses ``__slots__`` and keeps these methods
free of property indirection.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from ..errors import StreamError
from ..span import Body, Span
from .constants import ErrorCode, StreamState

Header = Tuple[str, str]

_CLOSED = StreamState.CLOSED
_HALF_CLOSED_LOCAL = StreamState.HALF_CLOSED_LOCAL


class StreamEvent(enum.IntEnum):
    """A frame sent or received on a stream.  PUSH_PROMISE is two
    events: one on the associated stream, one reserving the promised."""

    SEND_HEADERS = 0
    RECV_HEADERS = 1
    SEND_PUSH_PROMISE = 2
    RECV_PUSH_PROMISE = 3
    RESERVE_LOCAL = 4
    RESERVE_REMOTE = 5
    SEND_END_STREAM = 6
    RECV_END_STREAM = 7
    SEND_RST_STREAM = 8
    RECV_RST_STREAM = 9
    RECV_DATA = 10
    RECV_WINDOW_UPDATE = 11


class Refusal(enum.IntEnum):
    """A table entry that is not a next state (§5.1, §5.4).  For an
    event this endpoint sends, any refusal is a misuse of the API."""

    IGNORE = -1
    PROTOCOL_ERROR = -2  # a connection error
    STREAM_CLOSED = -3  # a stream error
    CONNECTION_STREAM_CLOSED = -4  # after the peer's END_STREAM


def _table() -> Dict[Tuple[StreamState, StreamEvent], int]:
    ID, RL, RR, OP, HL, HR, C, XL, XR = StreamState
    IG, PE, SC, CC = Refusal
    # One row per state, one column per StreamEvent.  PE: connection
    # error PROTOCOL_ERROR, §5.1's answer for most frames a state does
    # not admit (§6.6's for PUSH_PROMISE).  SC: stream error
    # STREAM_CLOSED; CC: connection error STREAM_CLOSED, after the
    # peer's END_STREAM.  IG: ignored — WINDOW_UPDATE and RST_STREAM may
    # trail our END_STREAM, and whatever the peer sent before our
    # RST_STREAM reached it (a PUSH_PROMISE still reserves), but a
    # RST_STREAM is never answered (§5.4.2).  END_STREAM rides on a
    # HEADERS or DATA frame the table has admitted first.
    #        HEADERS   PUSH_PROMISE  RESERVE   END_STREAM  RST_STREAM  DATA WINDOW_UPDATE
    #        send recv send recv     loc rem   send recv   send recv   recv recv
    rows = {
        ID: (OP, OP,  PE, PE,        RL, RR,   PE, PE,     PE, PE,     PE,  PE),
        RL: (HR, PE,  PE, PE,        PE, PE,   PE, PE,     XL, XR,     PE,  RL),
        RR: (PE, HL,  PE, PE,        PE, PE,   PE, PE,     XL, XR,     PE,  PE),
        OP: (OP, OP,  OP, OP,        PE, PE,   HL, HR,     XL, XR,     OP,  OP),
        HL: (PE, HL,  PE, HL,        PE, PE,   PE, C,      XL, XR,     HL,  HL),
        HR: (HR, SC,  HR, PE,        PE, PE,   C,  SC,     XL, XR,     SC,  HR),
        C:  (PE, CC,  PE, PE,        PE, PE,   PE, CC,     C,  IG,     CC,  IG),
        XL: (PE, IG,  PE, XL,        PE, PE,   PE, IG,     XL, IG,     IG,  IG),
        XR: (PE, SC,  PE, PE,        PE, PE,   PE, SC,     XR, IG,     SC,  SC),
    }
    return {(state, event): row[event] for state, row in rows.items() for event in StreamEvent}


#: ``(state, event) -> next state or Refusal``, for every pair.
TRANSITIONS = _table()


class H2Stream:
    """One HTTP/2 stream as seen by one endpoint."""

    __slots__ = (
        "stream_id",
        "state",
        "send_window",
        "recv_unacked",
        "response_headers",
        "_body",
        "_cursor",
        "_queued_bytes",
        "_end_after_queue",
        "bytes_sent",
        "pause_at",
        "reset_code",
    )

    def __init__(self, stream_id: int, initial_send_window: int, state=StreamState.IDLE):
        self.stream_id = stream_id
        self.state = state
        self.send_window = initial_send_window
        self.recv_unacked = 0

        #: The response headers a client received on this stream.
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

        #: Error code if reset, else None.
        self.reset_code: Optional[ErrorCode] = None

    def drop_body(self) -> None:
        """Forget the unsent body: the stream was reset."""
        self._body = b""
        self._cursor = 0
        self._queued_bytes = 0

    # ------------------------------------------------------------------
    # send-side body
    # ------------------------------------------------------------------
    def queue_body(self, data: Body, end_stream: bool) -> None:
        if self._end_after_queue:
            raise StreamError("body already finished", self.stream_id)
        if data:
            if self._queued_bytes:
                # A further write behind an undrained one: the only
                # place body bytes are copied, and no server here does it.
                cursor = self._cursor
                data = b"".join((self._body[cursor : cursor + self._queued_bytes], data))
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
        if state >= _CLOSED:
            return False
        if self._queued_bytes > 0:
            return self.sendable_bytes() > 0
        return self._end_after_queue and state is not _HALF_CLOSED_LOCAL

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
