"""Tests for per-stream state."""

import pytest

from repro.errors import StreamError
from repro.h2.constants import ErrorCode, StreamState
from repro.h2.stream import H2Stream


def make_stream(stream_id=1):
    return H2Stream(stream_id, initial_send_window=65_535)


class TestLifecycle:
    def test_open_and_half_close(self):
        stream = make_stream()
        stream.open_local()
        assert stream.state == StreamState.OPEN
        stream.close_local()
        assert stream.state == StreamState.HALF_CLOSED_LOCAL
        stream.close_remote()
        assert stream.closed

    def test_reserved_local_push_lifecycle(self):
        stream = make_stream(2)
        stream.reserve_local()
        assert stream.state == StreamState.RESERVED_LOCAL
        stream.close_local()
        assert stream.state == StreamState.HALF_CLOSED_LOCAL

    def test_double_open_rejected(self):
        stream = make_stream()
        stream.open_local()
        with pytest.raises(StreamError):
            stream.open_local()

    def test_reset_closes_and_clears_queue(self):
        stream = make_stream()
        stream.open_local()
        stream.queue_body(b"x" * 1000, end_stream=False)
        stream.reset(ErrorCode.CANCEL)
        assert stream.closed
        assert stream.reset_code == ErrorCode.CANCEL
        assert stream.queued_bytes == 0


class TestSendQueue:
    def test_queue_and_take(self):
        stream = make_stream()
        stream.open_local()
        body = b"hello world"
        stream.queue_body(body, end_stream=True)
        span, end, more = stream.take(5)
        assert span.source is body  # a window onto the body, not a copy
        assert span.tobytes() == b"hello"
        assert not end and more
        assert stream.send_window == 65_535 - 5  # take consumes it
        span, end, more = stream.take(100)
        assert (span.start, span.stop) == (5, 11)
        assert span.tobytes() == b" world"
        assert end and not more

    def test_queue_after_end_rejected(self):
        stream = make_stream()
        stream.queue_body(b"x", end_stream=True)
        with pytest.raises(StreamError):
            stream.queue_body(b"y", end_stream=False)

    def test_sendable_respects_flow_window(self):
        stream = H2Stream(1, initial_send_window=100)
        stream.open_local()
        stream.queue_body(b"z" * 500, end_stream=False)
        assert stream.sendable_bytes() == 100

    def test_sendable_respects_pause_point(self):
        # The interleaving scheduler's mechanism: cap the stream at a
        # byte offset; lifting the cap re-enables sending.
        stream = make_stream()
        stream.open_local()
        stream.queue_body(b"a" * 1000, end_stream=True)
        stream.pause_at = 300
        assert stream.sendable_bytes() == 300
        span, end, more = stream.take(1000)
        assert len(span) == 300 and not end and not more
        assert stream.sendable_bytes() == 0
        assert not stream.wants_to_send()
        stream.pause_at = None
        assert stream.sendable_bytes() == 700
        assert stream.wants_to_send()

    def test_wants_to_send_for_bare_end_stream(self):
        stream = make_stream()
        stream.open_local()
        stream.queue_body(b"", end_stream=True)
        assert stream.wants_to_send()
        span, end, more = stream.take(0)
        assert len(span) == 0 and end and not more

    def test_second_write_queues_behind_the_cursor(self):
        stream = make_stream()
        stream.open_local()
        stream.queue_body(b"abcdef", end_stream=False)
        stream.take(2)
        stream.queue_body(b"ghi", end_stream=True)
        assert stream.queued_bytes == 7
        span, end, _more = stream.take(100)
        assert span.tobytes() == b"cdefghi" and end
        assert stream.bytes_sent == 9

    def test_bytes_sent_accounting(self):
        stream = make_stream()
        stream.open_local()
        stream.queue_body(b"q" * 400, end_stream=False)
        stream.take(150)
        assert stream.bytes_sent == 150
        assert stream.queued_bytes == 250
