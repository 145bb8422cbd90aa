"""Flow-control windows as the plain ints a stream keeps.

A stream's ``send_window`` counts the octets the peer still admits and
its ``recv_unacked`` the octets received since this endpoint last
credited it; the connection applies every rule to them.  Each case
drives one ``H2Connection`` through ``tests/support/h2peer.py`` and
reads the stream's counts back, next to the frames it writes.
"""

import pytest

from repro.errors import FlowControlError
from repro.h2 import Settings
from repro.h2.constants import MAX_WINDOW_SIZE
from tests.support.h2peer import (
    REQUEST,
    SETTINGS_INITIAL_WINDOW_SIZE,
    WINDOW_UPDATE,
    H2Peer,
    data,
    of_type,
    window_update,
)


def stream_credits(frames):
    return [f.increment for f in of_type(frames, WINDOW_UPDATE) if f.stream_id == 1]


class TestFlowControlWindow:
    def test_default_initial_window(self):
        # §6.9.2: a stream's send window starts at the peer's
        # SETTINGS_INITIAL_WINDOW_SIZE, 65 535 until it says otherwise.
        peer = H2Peer("server")
        peer.handshake()
        peer.send(peer.headers(1, end_stream=True))
        assert peer.conn.streams[1].send_window == 65_535

    def test_consume_and_replenish(self):
        # §6.9.1: DATA sent consumes the window; WINDOW_UPDATE adds to it.
        peer = H2Peer("server")
        peer.handshake()
        peer.send(peer.headers(1, end_stream=True))
        stream = peer.conn.streams[1]
        peer.conn.respond(1, [(":status", "200")])
        peer.conn.send_body(1, b"b" * 400)
        peer.receive()
        assert stream.send_window == 65_135  # each DATA octet sent consumes it
        peer.send(window_update(1, 200))
        assert stream.send_window == 65_335

    def test_invalid_initial_rejected(self):
        # §6.5.2: an initial window lies in 0..2^31-1, whether this
        # endpoint configures it or the peer sends it.
        with pytest.raises(FlowControlError):
            Settings(initial_window_size=-5)
        with pytest.raises(FlowControlError):
            Settings(initial_window_size=MAX_WINDOW_SIZE + 1)
        with pytest.raises(FlowControlError):
            Settings().apply({SETTINGS_INITIAL_WINDOW_SIZE: MAX_WINDOW_SIZE + 1})


class TestReceiveWindow:
    @staticmethod
    def client(initial_window: int = 1_000) -> H2Peer:
        """A client advertising ``initial_window`` per stream, whose
        stream 1 has its response HEADERS."""
        peer = H2Peer("client", settings=Settings(initial_window_size=initial_window))
        peer.conn.request(REQUEST)
        peer.handshake()
        peer.send(peer.headers(1, fields=[(":status", "200")]))
        peer.receive()
        return peer

    def test_no_update_below_half(self):
        peer = self.client()
        peer.send(data(1, 400))
        assert stream_credits(peer.receive()) == []
        assert peer.conn.streams[1].recv_unacked == 400

    def test_update_past_half(self):
        # The credit past half the window is every octet consumed since
        # the last one, not just the frame that crossed the line.
        peer = self.client()
        peer.send(data(1, 400))
        assert stream_credits(peer.receive()) == []
        peer.send(data(1, 200))
        assert stream_credits(peer.receive()) == [600]
        assert peer.conn.streams[1].recv_unacked == 0

    def test_counter_resets_after_update(self):
        peer = self.client()
        peer.send(data(1, 600))
        assert stream_credits(peer.receive()) == [600]
        peer.send(data(1, 100))
        assert stream_credits(peer.receive()) == []
        assert peer.conn.streams[1].recv_unacked == 100
