"""``H2Stream.take`` against the three calls it replaced.

The pump used to ask a stream ``sendable_bytes``, then ``take_body``,
consume the stream window itself, and ask ``wants_to_send`` afterwards;
``take(budget)`` answers all of it in one call.  The oracle is that
sequence, kept in ``tests/support/stream_reference.py`` over plain
integers.  Random programs of writes, window credit, SETTINGS shrinks,
pause moves and takes run through both; after every step the span
bounds, END_STREAM, readiness, ``bytes_sent``, queue and window must be
equal, and the spans taken must spell the bytes written.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.h2.constants import StreamState
from repro.h2.stream import H2Stream
from tests.support.stream_reference import ReferenceSendStream

sizes = st.sampled_from([0, 1, 5, 100, 1_400, 16_384, 70_000])
step = st.one_of(
    st.tuples(st.just("queue"), sizes, st.booleans()),
    st.tuples(st.just("credit"), st.sampled_from([1, 99, 1_400, 65_535])),
    st.tuples(st.just("shrink"), st.sampled_from([1, 1_000, 65_535])),
    st.tuples(st.just("pause"), st.one_of(st.none(), sizes)),
    st.tuples(st.just("take"), sizes),
)


def assert_same_state(stream, reference):
    assert stream.wants_to_send() == reference.wants_to_send()
    assert stream.sendable_bytes() == reference.sendable_bytes()
    assert stream.bytes_sent == reference.bytes_sent
    assert stream.queued_bytes == reference.queued
    assert stream.send_window == reference.window


@given(window=st.sampled_from([0, 1, 100, 65_535]), program=st.lists(step, max_size=40))
# Zero window: nothing but a bare END_STREAM may leave.
@example(window=0, program=[("queue", 100, True), ("take", 100), ("credit", 99), ("take", 100)])
# Pause boundary: the frame that reaches it must say "no more".
@example(window=65_535, program=[("queue", 1_400, True), ("pause", 100), ("take", 100), ("take", 5)])
@example(window=65_535, program=[("queue", 1_400, False), ("pause", 100), ("take", 1_400), ("pause", None), ("take", 5)])
# Bare END_STREAM, and END_STREAM only once the queue is empty.
@example(window=65_535, program=[("queue", 0, True), ("take", 0)])
@example(window=65_535, program=[("queue", 100, True), ("take", 5), ("take", 100)])
# Budget 0 with bytes queued: an empty span, nothing moves.
@example(window=65_535, program=[("queue", 100, False), ("take", 0), ("take", 100)])
# A SETTINGS shrink drives the window negative.
@example(window=100, program=[("queue", 1_400, False), ("shrink", 1_000), ("take", 100), ("credit", 1_400), ("take", 100)])
@settings(max_examples=300, deadline=None)
def test_take_matches_the_three_calls_it_replaced(window, program):
    stream = H2Stream(1, initial_send_window=window, state=StreamState.OPEN)
    reference = ReferenceSendStream(window)
    written = bytearray()
    taken = bytearray()
    ended = False
    for op in program:
        kind = op[0]
        if kind == "queue":
            if reference.end_after_queue:
                continue
            data = bytes((len(written) + i) % 251 for i in range(op[1]))
            written += data
            stream.queue_body(data, op[2])
            reference.queue_body(op[1], op[2])
        elif kind == "credit":
            if reference.window + op[1] > 2**31 - 1:
                continue
            stream.send_window += op[1]
            reference.window += op[1]
        elif kind == "shrink":
            stream.send_window -= op[1]
            reference.window -= op[1]
        elif kind == "pause":
            stream.pause_at = reference.pause_at = op[1]
        elif not ended:
            span, end, more = stream.take(op[1])
            assert (span.start, span.stop, bool(end)) == reference.pump_one_frame(op[1])
            assert len(span) <= op[1]
            taken += span.tobytes()
            if end:
                ended = True
                stream.state = StreamState.HALF_CLOSED_LOCAL
                reference.close_local()
            assert bool(more) == reference.wants_to_send()
        assert_same_state(stream, reference)
    assert bytes(taken) == bytes(written[: stream.bytes_sent])
