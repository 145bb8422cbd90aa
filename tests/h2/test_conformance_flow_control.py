"""RFC 7540 flow control (§6.9), checked by a peer written from the RFC.

Each case drives one ``H2Connection`` with frames packed by
``tests/support/h2peer.py`` and reads back what it writes: the error
class and its RFC 7540 §7 ``error_code`` when the peer breaks a rule,
the DATA octets and WINDOW_UPDATE increments when it keeps them.  The
model raises every violation as a connection error (§5.4.1), including
the ones the RFC allows as stream errors.
"""

import pytest

from repro.errors import FlowControlError, ProtocolError
from repro.h2 import H2Connection, Settings
from repro.mechanisms.h2quic import H2OverQuicConnection
from repro.span import Span
from repro.trace import FrameReceived, Tracer
from tests.support.h2peer import (
    FLOW_CONTROL_ERROR,
    MAX_WINDOW,
    PROTOCOL_ERROR,
    REQUEST,
    SETTINGS,
    SETTINGS_INITIAL_WINDOW_SIZE,
    WINDOW_UPDATE,
    H2Peer,
    data,
    data_octets,
    of_type,
    padded_data,
    settings,
    window_update,
)

RESPONSE = [(":status", "200")]
CONNECTION_RECV_WINDOW = 15 * 1024 * 1024


def server_with_request(body: int = 0, local: Settings = None, end_stream: bool = True):
    """A server under test with stream 1 open; it answers with ``body``
    octets of DATA (none when 0)."""
    peer = H2Peer("server", settings=local)
    conn = peer.conn
    if body:

        def on_request(stream_id, headers, priority):
            conn.respond(stream_id, RESPONSE)
            conn.send_body(stream_id, b"b" * body, end_stream=True)

        conn.on_request = on_request
    peer.handshake()
    peer.send(peer.headers(1, end_stream=end_stream))
    return peer


def client_with_response(local: Settings = None, cls=H2Connection, tracer=None):
    """A client under test whose stream 1 has its response HEADERS."""
    peer = H2Peer("client", settings=local, cls=cls, tracer=tracer)
    peer.conn.request(REQUEST)
    peer.handshake()
    peer.send(peer.headers(1, fields=RESPONSE))
    peer.receive()
    return peer


# ---------------------------------------------------------------------------
# §6.9: WINDOW_UPDATE
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stream_id", [1, 0])
def test_zero_increment_is_protocol_error(stream_id):
    # §6.9: an increment of 0 is a PROTOCOL_ERROR, on a stream or on
    # the connection.
    peer = server_with_request()
    with pytest.raises(ProtocolError) as excinfo:
        peer.send(window_update(stream_id, 0))
    assert type(excinfo.value) is ProtocolError
    assert excinfo.value.error_code == PROTOCOL_ERROR


@pytest.mark.parametrize("stream_id", [1, 0])
def test_window_may_reach_the_maximum(stream_id):
    # §6.9.1: 2^31-1 octets is a legal window.
    peer = server_with_request()
    peer.send(window_update(stream_id, MAX_WINDOW - 65_535))
    assert not peer.receive()


@pytest.mark.parametrize("stream_id", [1, 0])
def test_window_past_the_maximum_is_flow_control_error(stream_id):
    # §6.9.1: a WINDOW_UPDATE that pushes a window past 2^31-1 is a
    # FLOW_CONTROL_ERROR, on the stream (a stream error the model
    # raises on the connection) and on the connection.
    peer = server_with_request()
    peer.send(window_update(stream_id, MAX_WINDOW - 65_535))
    with pytest.raises(FlowControlError) as excinfo:
        peer.send(window_update(stream_id, 1))
    assert excinfo.value.error_code == FLOW_CONTROL_ERROR


def test_window_update_replenishes_the_stream_window():
    # §6.9: DATA stops at the 65 535-octet initial windows (§6.9.2) and
    # a WINDOW_UPDATE on both windows lets exactly that many more out.
    peer = server_with_request(body=100_000)
    assert data_octets(peer.receive(), 1) == 65_535
    peer.send(window_update(0, 1_000))
    assert data_octets(peer.receive(), 1) == 0
    peer.send(window_update(1, 400))
    assert data_octets(peer.receive(), 1) == 400
    peer.send(window_update(1, 5_000))
    assert data_octets(peer.receive(), 1) == 600


# ---------------------------------------------------------------------------
# §6.9.2 / §6.5.2: SETTINGS_INITIAL_WINDOW_SIZE
# ---------------------------------------------------------------------------


def test_initial_window_change_applies_to_open_streams():
    # §6.9.2: a change of SETTINGS_INITIAL_WINDOW_SIZE adjusts every
    # open stream's window by the difference; a decrease can drive it
    # negative, and DATA stalls until WINDOW_UPDATEs bring it back
    # above zero; an increase releases DATA at once.  The connection
    # window is not touched.
    peer = server_with_request(body=100_000)
    assert data_octets(peer.receive(), 1) == 65_535
    peer.send(window_update(0, 100_000))
    peer.send(settings({SETTINGS_INITIAL_WINDOW_SIZE: 16_384}))
    frames = peer.receive()
    assert [f.flags for f in of_type(frames, SETTINGS)] == [0x1]  # §6.5.3 ACK
    assert data_octets(frames, 1) == 0  # window now 16 384 - 65 535
    peer.send(window_update(1, 49_151))
    assert data_octets(peer.receive(), 1) == 0  # back to exactly zero
    peer.send(window_update(1, 1_000))
    assert data_octets(peer.receive(), 1) == 1_000
    peer.send(settings({SETTINGS_INITIAL_WINDOW_SIZE: 20_000}))
    assert data_octets(peer.receive(), 1) == 20_000 - 16_384


def test_initial_window_change_past_the_maximum_is_flow_control_error():
    # §6.9.2: a change that pushes a stream window past 2^31-1 is a
    # connection error of type FLOW_CONTROL_ERROR.
    peer = server_with_request()
    peer.send(window_update(1, MAX_WINDOW - 65_535))
    with pytest.raises(FlowControlError) as excinfo:
        peer.send(settings({SETTINGS_INITIAL_WINDOW_SIZE: 65_536}))
    assert excinfo.value.error_code == FLOW_CONTROL_ERROR


def test_initial_window_above_the_maximum_is_flow_control_error():
    # §6.5.2: SETTINGS_INITIAL_WINDOW_SIZE above 2^31-1 is a
    # FLOW_CONTROL_ERROR.
    peer = H2Peer("server")
    with pytest.raises(FlowControlError) as excinfo:
        peer.handshake({SETTINGS_INITIAL_WINDOW_SIZE: MAX_WINDOW + 1})
    assert excinfo.value.error_code == FLOW_CONTROL_ERROR


# ---------------------------------------------------------------------------
# §6.9.1: DATA against the receive windows the endpoint advertised
# ---------------------------------------------------------------------------


def test_data_filling_the_stream_window_is_accepted():
    # §6.9.1: a sender may use the whole window the receiver advertised.
    peer = client_with_response(Settings(initial_window_size=1_000))
    peer.send(data(1, 1_000))
    updates = of_type(peer.receive(), WINDOW_UPDATE)
    assert [(f.stream_id, f.increment) for f in updates] == [(1, 1_000)]


def test_data_beyond_the_stream_window_is_flow_control_error():
    # §6.9.1: a receiver MUST treat DATA beyond the window it advertised
    # as a FLOW_CONTROL_ERROR.
    peer = client_with_response(Settings(initial_window_size=1_000))
    with pytest.raises(FlowControlError) as excinfo:
        peer.send(data(1, 1_001))
    assert excinfo.value.error_code == FLOW_CONTROL_ERROR


def test_padded_data_filling_the_stream_window_is_accepted():
    # §6.1, §6.9.1: the Pad Length octet and the padding are flow
    # controlled; 1 + 799 + 200 octets fill a 1 000-octet window, and
    # the traced frame size is the 9-octet header plus all of them.
    tracer = Tracer()
    peer = client_with_response(Settings(initial_window_size=1_000), tracer=tracer)
    peer.send(padded_data(1, 799, 200))
    updates = of_type(peer.receive(), WINDOW_UPDATE)
    assert [(f.stream_id, f.increment) for f in updates] == [(1, 1_000)]
    received = [
        event.size
        for event in tracer.events()
        if isinstance(event, FrameReceived) and event.frame_type == "DATA"
    ]
    assert received == [1_009]


def test_padding_beyond_the_stream_window_is_flow_control_error():
    # §6.1, §6.9.1: 800 data octets fit the window, but with the Pad
    # Length octet and 200 octets of padding the frame carries 1 001.
    peer = client_with_response(Settings(initial_window_size=1_000))
    with pytest.raises(FlowControlError) as excinfo:
        peer.send(padded_data(1, 800, 200))
    assert excinfo.value.error_code == FLOW_CONTROL_ERROR


def test_data_beyond_the_stream_window_over_quic_is_flow_control_error():
    # §6.9.1 holds on either transport: over QUIC a body arrives as
    # stream bytes, not DATA frames, and meets the same windows.
    peer = client_with_response(Settings(initial_window_size=1_000), H2OverQuicConnection)
    peer.endpoint.on_stream_data(1, Span(b"d" * 1_000), False)
    updates = of_type(peer.receive(), WINDOW_UPDATE)
    assert [(f.stream_id, f.increment) for f in updates] == [(1, 1_000)]
    with pytest.raises(FlowControlError) as excinfo:
        peer.endpoint.on_stream_data(1, Span(b"d" * 1_001), False)
    assert excinfo.value.error_code == FLOW_CONTROL_ERROR


def test_data_beyond_the_client_connection_window_is_flow_control_error():
    # §6.9.1: the client advertised 15 MiB on the connection (its
    # WINDOW_UPDATE at start-up); one octet more is an error even where
    # the stream window would admit it.
    local = Settings(initial_window_size=16 * 1024 * 1024, max_frame_size=16_777_215)
    peer = client_with_response(local)
    with pytest.raises(FlowControlError) as excinfo:
        peer.send(data(1, CONNECTION_RECV_WINDOW + 1))
    assert excinfo.value.error_code == FLOW_CONTROL_ERROR


def test_data_beyond_the_server_connection_window_is_flow_control_error():
    # §6.9.1 with §6.9.2: a server advertises no connection credit at
    # start-up, so its connection window is the 65 535-octet default.
    local = Settings(initial_window_size=1_000_000, max_frame_size=1 << 17)
    peer = server_with_request(local=local, end_stream=False)
    peer.send(data(1, 65_535))
    assert [f.increment for f in of_type(peer.receive(), WINDOW_UPDATE)] == [65_535]
    peer = server_with_request(local=local, end_stream=False)
    with pytest.raises(FlowControlError) as excinfo:
        peer.send(data(1, 65_536))
    assert excinfo.value.error_code == FLOW_CONTROL_ERROR


# ---------------------------------------------------------------------------
# Receive-side credit: the client's WINDOW_UPDATE policy
# ---------------------------------------------------------------------------


def test_client_grows_its_connection_window_at_start():
    # §6.9.2: only WINDOW_UPDATE can grow the connection window; the
    # client sends one on stream 0 up to 15 MiB before any DATA.
    peer = H2Peer("client")
    frames = peer.receive()
    updates = of_type(frames, WINDOW_UPDATE)
    assert [(f.stream_id, f.increment) for f in updates] == [
        (0, CONNECTION_RECV_WINDOW - 65_535)
    ]


def test_server_sends_no_connection_credit_at_start():
    peer = H2Peer("server")
    assert of_type(peer.handshake(), WINDOW_UPDATE) == []


def test_client_credits_a_stream_once_half_its_window_is_spent():
    # The client credits a stream once more than half its window is
    # spent since the last credit, by exactly the octets consumed; at
    # exactly half it waits.
    peer = client_with_response(Settings())
    peer.send(data(1, 16_384), data(1, 16_383))
    assert of_type(peer.receive(), WINDOW_UPDATE) == []  # 32 767 * 2 <= 65 535
    peer.send(data(1, 1))
    updates = of_type(peer.receive(), WINDOW_UPDATE)
    assert [(f.stream_id, f.increment) for f in updates] == [(1, 32_768)]
    peer.send(data(1, 16_384))
    assert of_type(peer.receive(), WINDOW_UPDATE) == []  # the count restarted
    peer.send(data(1, 16_384))
    updates = of_type(peer.receive(), WINDOW_UPDATE)
    assert [(f.stream_id, f.increment) for f in updates] == [(1, 32_768)]


def test_no_stream_credit_for_the_final_data():
    # More than half the window is spent, but a stream that has ended
    # needs no more credit.
    local = Settings(initial_window_size=1_000)
    peer = client_with_response(local)
    peer.send(data(1, 600, end_stream=True))
    assert of_type(peer.receive(), WINDOW_UPDATE) == []


def test_server_credits_the_connection_by_the_octets_consumed():
    # A server's connection window is the 65 535 it advertised, so it
    # credits once more than 32 767 octets are spent.
    local = Settings(initial_window_size=1_000_000)
    peer = server_with_request(local=local, end_stream=False)
    peer.send(data(1, 16_384), data(1, 16_384))
    updates = of_type(peer.receive(), WINDOW_UPDATE)
    assert [(f.stream_id, f.increment) for f in updates] == [(0, 32_768)]
