"""Reference model of a stream's send side: three questions per frame.

``repro.h2.stream.H2Stream.take`` cuts one DATA payload in one call:
it caps by queue, stream window and pause point, advances the cursor,
consumes the stream's send window and reports whether the stream can
still send.  This is what it replaced, kept so
``tests/property/test_property_stream_take.py`` has something
independent to compare against — the ``sendable_bytes`` / ``take_body``
/ ``wants_to_send`` trio the connection's pump used to call one after
the other, with the window arithmetic the pump did in between, over
plain integers (no ``Span``): same span bounds, same END_STREAM, same
readiness, same ``bytes_sent`` and send window after every step.  The
window is an int on both sides; the property test credits and shrinks
it directly, as the connection's WINDOW_UPDATE and SETTINGS handlers do.
"""

from repro.errors import StreamError


class ReferenceSendStream:
    """The send-side fields of ``H2Stream`` and the replaced methods."""

    def __init__(self, window: int):
        self.window = window
        self.cursor = 0
        self.queued = 0
        self.end_after_queue = False
        self.bytes_sent = 0
        self.pause_at = None
        self.half_closed_local = False

    def queue_body(self, size: int, end_stream: bool) -> None:
        if self.end_after_queue:
            raise StreamError("body already finished", 1)
        if size:
            # H2Stream rebases a further write onto a fresh body object:
            # the undrained tail moves to offset zero.
            self.cursor = 0
            self.queued += size
        if end_stream:
            self.end_after_queue = True

    def sendable_bytes(self) -> int:
        limit = min(self.queued, self.window)
        if limit < 0:
            limit = 0
        if self.pause_at is not None:
            head = self.pause_at - self.bytes_sent
            if head < limit:
                limit = max(head, 0)
        return limit

    def wants_to_send(self) -> bool:
        if self.queued > 0:
            return self.sendable_bytes() > 0
        return self.end_after_queue and not self.half_closed_local

    def take_body(self, size: int):
        if size > self.queued:
            size = self.queued
        start = self.cursor
        self.cursor = start + size
        self.queued -= size
        self.bytes_sent += size
        return start, self.cursor, self.end_after_queue and self.queued == 0

    def pump_one_frame(self, budget: int):
        """What ``_flush_data`` did per frame: size, take, consume."""
        start, stop, end = self.take_body(min(self.sendable_bytes(), budget))
        self.window -= stop - start
        return start, stop, end

    def close_local(self) -> None:
        self.half_closed_local = True

