"""No frame sequence from a peer may hang, crash or overdraw the connection.

A stateful fuzz gate over ``tests/support/h2peer.py``: Hypothesis plays
a foreign peer that sends random frames — well formed, malformed and
out of order, each type's payload built from values near its limits —
to one connection, in either role, over either mapping
(``H2Connection``, ``H2OverQuicConnection``).  The connection answers
as an application would: a server responds to each request with a body
larger than the initial windows, a client opens two requests.  Each
step must return or raise the package's typed error (``ReproError``);
after an error the connection is torn down, as a real endpoint's would
be, and the example goes on with a fresh one.  After every step no flow-control window is
below zero (§6.9), except a stream send window by as much as the peer
lowered SETTINGS_INITIAL_WINDOW_SIZE (§6.9.2).  Each example runs
under an interval timer, so a hang fails that example, not the run.
"""

import signal
import struct

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.errors import ReproError
from repro.h2 import H2Connection
from repro.h2.stream import TRANSITIONS, StreamEvent
from repro.mechanisms.h2quic import H2OverQuicConnection
from tests.support.h2peer import (
    CONTINUATION,
    DATA,
    END_HEADERS,
    END_STREAM,
    GOAWAY,
    HEADERS,
    PING,
    PRIORITY,
    PUSH_PROMISE,
    REQUEST,
    RST_STREAM,
    SETTINGS,
    SETTINGS_INITIAL_WINDOW_SIZE,
    WINDOW_UPDATE,
    H2Peer,
    frame,
    header_block,
    window_update,
)

#: Seconds one example may run before it counts as a hang.
_EXAMPLE_BUDGET_S = 2.0

_DEFAULT_WINDOW = 65_535

_STREAM_IDS = st.sampled_from([1, 3, 2, 4, 5, 0, 2**31 - 1])
#: Stream 0 most of the time, for the frames that belong there.
_CONNECTION_IDS = st.sampled_from([0, 0, 0, 1])
_U32 = st.sampled_from([0, 1, 100, 65_535, 65_536, 2**24, 2**31 - 1, 2**31, 2**32 - 1])
_FIELDS = st.sampled_from(
    [
        REQUEST,
        [(":status", "200")],
        [(":status", "103")],
        [(":status", "200"), ("Content-Type", "x")],
        [("x-trailer", "1")],
        REQUEST[:3],
        [],
    ]
)
_BLOCK = st.one_of(_FIELDS.map(header_block), st.binary(max_size=12))
_HEADER_FLAGS = st.one_of(
    st.sampled_from([END_HEADERS, END_HEADERS | END_STREAM, 0, END_STREAM]),
    st.integers(0, 255),
)
#: (identifier, value) pairs: known identifiers and one unknown.
_SETTING = st.tuples(st.sampled_from([1, 2, 3, 4, 5, 6, 0x99]), _U32)


@st.composite
def peer_frames(draw):
    """One frame of any type, its payload mostly well formed; returns
    ``(wire, initial window sizes it carries)``."""
    type_ = draw(
        st.sampled_from(
            [DATA, HEADERS, WINDOW_UPDATE, SETTINGS, PUSH_PROMISE, RST_STREAM, CONTINUATION,
             PRIORITY, PING, GOAWAY, 0x0A]
        )
    )
    connection_level = type_ in (SETTINGS, PING, GOAWAY)
    stream_id = draw(_CONNECTION_IDS if connection_level else _STREAM_IDS)
    windows = []
    if draw(st.integers(0, 9)) == 0:  # a payload of arbitrary octets
        wire = frame(type_, draw(st.integers(0, 255)), stream_id, draw(st.binary(max_size=24)))
        return wire, windows
    if type_ == DATA:
        flags = draw(st.sampled_from([0, END_STREAM]))
        payload = b"d" * draw(st.sampled_from([0, 1, 1_000, 16_384, 16_385]))
    elif type_ in (HEADERS, CONTINUATION):
        flags = draw(_HEADER_FLAGS)
        payload = draw(_BLOCK)
    elif type_ == PUSH_PROMISE:
        flags = draw(_HEADER_FLAGS)
        payload = struct.pack(">I", draw(_STREAM_IDS)) + draw(_BLOCK)
    elif type_ == SETTINGS:
        flags = draw(st.sampled_from([0, 0, 1]))
        pairs = draw(st.lists(_SETTING, max_size=3))
        windows = [value for code, value in pairs if code == SETTINGS_INITIAL_WINDOW_SIZE]
        payload = b"".join(struct.pack(">HI", code, value) for code, value in pairs)
    elif type_ == WINDOW_UPDATE:
        flags = 0
        payload = struct.pack(">I", draw(_U32))
    elif type_ in (RST_STREAM, GOAWAY):
        flags = 0
        payload = struct.pack(">I", draw(_U32)) * (2 if type_ == GOAWAY else 1)
    elif type_ == PRIORITY:
        flags = 0
        payload = struct.pack(">IB", draw(_U32), draw(st.integers(0, 255)))
    else:  # PING, or a type §4.1 says to ignore
        flags = draw(st.sampled_from([0, 1]))
        payload = bytes(8)
    return frame(type_, flags, stream_id, payload), windows


class _Hang(Exception):
    """An example outran its interval timer."""


def _on_alarm(signum, stack):
    raise _Hang(f"example ran past {_EXAMPLE_BUDGET_S} s")


_WINDOW_LIVE = StreamEvent.RECV_WINDOW_UPDATE


class PeerFuzz(RuleBasedStateMachine):
    @initialize(
        role=st.sampled_from(["server", "client"]),
        cls=st.sampled_from([H2Connection, H2OverQuicConnection]),
    )
    def start(self, role, cls):
        self._previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, _EXAMPLE_BUDGET_S)
        self.role, self.cls = role, cls
        self.connect()

    @precondition(lambda self: self.closed)
    @rule()
    def connect(self):
        """A fresh connection, handshake done: at the start, and after
        an error tore the last one down."""
        self.peer = H2Peer(self.role, cls=self.cls)
        conn = self.conn = self.peer.conn
        if self.role == "server":

            def respond(stream_id, headers, priority):
                conn.respond(stream_id, [(":status", "200")])
                conn.send_body(stream_id, b"b" * 100_000, end_stream=True)

            conn.on_request = respond
        else:
            conn.request(REQUEST)
            conn.request(REQUEST[:3] + [(":path", "/two")])
        self.closed = False
        #: Every SETTINGS_INITIAL_WINDOW_SIZE the peer sent, and the default.
        self.largest_initial = _DEFAULT_WINDOW
        #: The next stream id the peer opens: a request, or a promise.
        self.next_id = 1 if self.role == "server" else 2
        self.peer.handshake()

    def _send(self, wire):
        try:
            self.peer.send(wire)
        except ReproError:
            self.closed = True
        self.peer.receive()

    @precondition(lambda self: not self.closed)
    @rule(response_on=st.sampled_from([1, 3, None]), end_stream=st.booleans())
    def open_stream(self, response_on, end_stream):
        """What a conforming peer sends most: a server under test gets
        the next request; a client under test a response on one of its
        two requests or, for ``None``, the next push promise."""
        flags = END_HEADERS | (END_STREAM if end_stream else 0)
        if self.role == "client" and response_on is not None:
            block = header_block([(":status", "200")])
            self._send(frame(HEADERS, flags, response_on, block))
            return
        if self.role == "server":
            self._send(frame(HEADERS, flags, self.next_id, header_block(REQUEST)))
        else:
            block = struct.pack(">I", self.next_id) + header_block(REQUEST)
            self._send(frame(PUSH_PROMISE, END_HEADERS, 1, block))
        self.next_id += 2

    @precondition(lambda self: not self.closed)
    @rule(stream_id=st.sampled_from([0, 1, 2, 3, 4]), increment=_U32)
    def credit(self, stream_id, increment):
        self._send(window_update(stream_id, increment))

    def teardown(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if hasattr(self, "_previous"):
            signal.signal(signal.SIGALRM, self._previous)

    @precondition(lambda self: not self.closed)
    @rule(sent=peer_frames())
    def send(self, sent):
        wire, windows = sent
        self.largest_initial = max([self.largest_initial, *windows])
        self._send(wire)

    @precondition(lambda self: not self.closed)
    @rule(size=st.integers(1, 17))
    def send_garbage(self, size):
        self._send(b"\xff" * size)

    @invariant()
    def no_window_below_zero(self):
        conn = self.conn
        assert conn._conn_send_window >= 0
        assert 0 <= conn._conn_recv_unacked <= conn._conn_recv_capacity
        lowered = conn.remote_settings.initial_window_size - self.largest_initial
        receive = conn.local_settings.initial_window_size
        for stream in conn.streams.values():
            assert 0 <= stream.recv_unacked <= receive
            if TRANSITIONS[stream.state, _WINDOW_LIVE] >= 0:
                assert stream.send_window >= min(0, lowered), stream.stream_id


def test_no_peer_frame_sequence_hangs_crashes_or_overdraws_a_window():
    run_state_machine_as_test(
        PeerFuzz,
        settings=settings(max_examples=150, stateful_step_count=25, deadline=None),
    )
