"""Tests for per-stream state and the §5.1 transition table."""

import pytest

from repro.errors import StreamError
from repro.h2.constants import StreamState
from repro.h2.stream import TRANSITIONS, H2Stream, Refusal, StreamEvent

E = StreamEvent
S = StreamState


def make_stream(stream_id=1):
    return H2Stream(stream_id, initial_send_window=65_535, state=S.OPEN)


def walk(state, *events):
    """The states the table passes through from ``state``."""
    path = [state]
    for event in events:
        state = TRANSITIONS[state, event]
        path.append(state)
    return path


class TestLifecycle:
    def test_open_and_half_close(self):
        # §5.1: a request, then its response.
        assert walk(S.IDLE, E.SEND_HEADERS, E.SEND_END_STREAM, E.RECV_HEADERS, E.RECV_END_STREAM) == [
            S.IDLE, S.OPEN, S.HALF_CLOSED_LOCAL, S.HALF_CLOSED_LOCAL, S.CLOSED,
        ]

    def test_reserved_local_push_lifecycle(self):
        # §5.1: a promised stream opens half-closed (remote) by its
        # response HEADERS; only this endpoint sends on it.
        assert walk(S.IDLE, E.RESERVE_LOCAL, E.SEND_HEADERS, E.SEND_END_STREAM) == [
            S.IDLE, S.RESERVED_LOCAL, S.HALF_CLOSED_REMOTE, S.CLOSED,
        ]
        assert TRANSITIONS[S.RESERVED_LOCAL, E.SEND_END_STREAM] == Refusal.PROTOCOL_ERROR

    def test_double_open_rejected(self):
        # Only idle streams are opened or reserved.
        for event in (E.RESERVE_LOCAL, E.RESERVE_REMOTE):
            for state in S:
                if state is not S.IDLE:
                    assert TRANSITIONS[state, event] < 0

    def test_reset_closes_and_clears_queue(self):
        stream = make_stream()
        stream.queue_body(b"x" * 1000, end_stream=False)
        stream.drop_body()
        assert stream.queued_bytes == 0
        assert not stream.wants_to_send()
        for state in (S.RESERVED_LOCAL, S.RESERVED_REMOTE, S.OPEN, S.HALF_CLOSED_LOCAL):
            assert TRANSITIONS[state, E.SEND_RST_STREAM] is S.RESET_LOCAL
            assert TRANSITIONS[state, E.RECV_RST_STREAM] is S.RESET_REMOTE

    def test_every_pair_is_in_the_table(self):
        assert len(TRANSITIONS) == len(S) * len(E)
        for value in TRANSITIONS.values():
            assert value in set(S) | set(Refusal)

    def test_closed_states_remember_how_they_closed(self):
        # §5.1 closed: DATA after both END_STREAMs is a connection error,
        # after the peer's RST_STREAM a stream error, and after ours it
        # is ignored.
        assert TRANSITIONS[S.CLOSED, E.RECV_DATA] == Refusal.CONNECTION_STREAM_CLOSED
        assert TRANSITIONS[S.RESET_REMOTE, E.RECV_DATA] == Refusal.STREAM_CLOSED
        assert TRANSITIONS[S.RESET_LOCAL, E.RECV_DATA] == Refusal.IGNORE
        assert all(state >= S.CLOSED for state in (S.CLOSED, S.RESET_LOCAL, S.RESET_REMOTE))

    def test_closed_stream_does_not_send(self):
        for state in (S.CLOSED, S.RESET_LOCAL, S.RESET_REMOTE):
            stream = H2Stream(1, initial_send_window=65_535, state=state)
            stream.queue_body(b"", end_stream=True)
            assert not stream.wants_to_send()


class TestSendQueue:
    def test_queue_and_take(self):
        stream = make_stream()
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
        stream = H2Stream(1, initial_send_window=100, state=S.OPEN)
        stream.queue_body(b"z" * 500, end_stream=False)
        assert stream.sendable_bytes() == 100

    def test_sendable_respects_pause_point(self):
        # The interleaving scheduler's mechanism: cap the stream at a
        # byte offset; lifting the cap re-enables sending.
        stream = make_stream()
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
        stream.queue_body(b"", end_stream=True)
        assert stream.wants_to_send()
        span, end, more = stream.take(0)
        assert len(span) == 0 and end and not more

    def test_second_write_queues_behind_the_cursor(self):
        # A body is ``bytes`` or, for an opaque one, a read-only view.
        for body in (bytes, memoryview):
            stream = make_stream()
            stream.queue_body(body(b"abcdef"), end_stream=False)
            stream.take(2)
            stream.queue_body(body(b"ghi"), end_stream=True)
            assert stream.queued_bytes == 7
            span, end, _more = stream.take(100)
            assert span.tobytes() == b"cdefghi" and end
            assert stream.bytes_sent == 9

    def test_bytes_sent_accounting(self):
        stream = make_stream()
        stream.queue_body(b"q" * 400, end_stream=False)
        stream.take(150)
        assert stream.bytes_sent == 150
        assert stream.queued_bytes == 250
