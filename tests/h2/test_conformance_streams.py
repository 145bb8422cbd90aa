"""RFC 7540 stream states (§5.1) and identifiers (§5.1.1), checked by a
peer written from the RFC.

Each case drives one ``H2Connection`` with frames packed by
``tests/support/h2peer.py`` and reads back what it raises and writes.
The model raises every violation (§5.4): a connection error as
:class:`ProtocolError`, a stream error as :class:`StreamError`, each
with its RFC 7540 §7 ``error_code``.  A frame §5.1 says to ignore
raises nothing and writes nothing.
"""

import struct

import pytest

from repro.errors import ProtocolError, StreamError
from repro.h2 import ErrorCode, H2Connection, Settings, StreamState
from repro.mechanisms.h2quic import H2OverQuicConnection
from repro.span import Span
from tests.support.h2peer import (
    CANCEL,
    END_STREAM,
    GOAWAY,
    HEADERS,
    PING,
    PROTOCOL_ERROR,
    PUSH_PROMISE,
    REQUEST,
    RST_STREAM,
    STREAM_CLOSED,
    WINDOW_UPDATE,
    H2Peer,
    continuation,
    data,
    frame,
    goaway,
    header_block,
    of_type,
    ping,
    priority,
    push_promise,
    rst_stream,
    settings,
    window_update,
)

RESPONSE = [(":status", "200")]

PUSHED = REQUEST[:-1] + [(":path", "/style.css")]


def server_under_test():
    """A server under test, its handshake done; it records requests."""
    peer = H2Peer("server")
    peer.requests = []
    peer.conn.on_request = lambda sid, headers, prio: peer.requests.append(sid)
    peer.handshake()
    return peer


def client_under_test(local: Settings = None, cls=H2Connection):
    """A client under test with request stream 1 open; it records the
    responses, bodies and promises it is handed."""
    peer = H2Peer("client", settings=local, cls=cls)
    conn = peer.conn
    peer.responses, peer.bodies, peer.promises = [], [], []
    conn.on_response = lambda sid, headers: peer.responses.append(sid)
    conn.on_data = lambda sid, span: peer.bodies.append((sid, len(span)))
    conn.on_push_promise = lambda parent, pid, headers: peer.promises.append(pid)
    conn.request(REQUEST)
    peer.handshake()
    return peer


def raises(peer, error, code, *frames):
    """Send ``frames``; the connection raises ``error`` with ``code``."""
    with pytest.raises(error) as excinfo:
        peer.send(*frames)
    assert type(excinfo.value) is error
    assert excinfo.value.error_code == code


def silent(peer, *frames):
    """Send ``frames``; the connection raises nothing and writes nothing."""
    peer.send(*frames)
    assert peer.receive() == []


# ---------------------------------------------------------------------------
# §5.1 idle, §5.1.1 stream identifiers: a server under test
# ---------------------------------------------------------------------------


def test_data_on_an_idle_stream_is_protocol_error():
    # §5.1 idle: any frame but HEADERS or PRIORITY is a connection error
    # of type PROTOCOL_ERROR.
    raises(server_under_test(), ProtocolError, PROTOCOL_ERROR, data(1, 10))


def test_data_on_stream_zero_is_protocol_error():
    # §6.1: DATA not associated with a stream is a PROTOCOL_ERROR.
    raises(server_under_test(), ProtocolError, PROTOCOL_ERROR, data(0, 10))


def test_rst_stream_on_an_idle_stream_is_protocol_error():
    # §6.4: RST_STREAM on an idle stream is a PROTOCOL_ERROR.
    raises(server_under_test(), ProtocolError, PROTOCOL_ERROR, rst_stream(7, CANCEL))


def test_window_update_on_an_idle_stream_is_protocol_error():
    # §5.1 idle.
    raises(server_under_test(), ProtocolError, PROTOCOL_ERROR, window_update(9, 100))


def test_headers_on_an_even_stream_from_a_client_is_protocol_error():
    # §5.1.1: streams a client opens have odd identifiers.
    peer = server_under_test()
    raises(peer, ProtocolError, PROTOCOL_ERROR, peer.headers(2, end_stream=True))


def test_headers_on_a_lower_stream_id_is_protocol_error():
    # §5.1.1: a new stream's identifier is greater than every stream the
    # peer has opened; opening 5 closed the idle stream 3.
    peer = server_under_test()
    peer.send(peer.headers(5, end_stream=True))
    assert peer.requests == [5]
    raises(peer, ProtocolError, PROTOCOL_ERROR, peer.headers(3, end_stream=True))


def test_priority_on_an_idle_stream_is_allowed():
    # §5.1 idle, §5.3: PRIORITY may name a stream that is not open yet.
    peer = server_under_test()
    silent(peer, priority(9, depends_on=0, weight=200))
    assert 9 in peer.conn.priority_tree


def test_priority_on_stream_zero_is_protocol_error():
    # §6.3: PRIORITY on stream 0 is a connection error.  Sent before any
    # request, it named no open stream: the root would become its own
    # parent, and the next response would never finish sending.
    raises(server_under_test(), ProtocolError, PROTOCOL_ERROR, priority(0, depends_on=3))


def test_unknown_frame_type_is_ignored():
    # §4.1, §5.5: a frame of an unknown type is ignored and discarded.
    silent(server_under_test(), frame(0xEE, 0, 1, b"unknown"))


# ---------------------------------------------------------------------------
# §5.1 half-closed (remote) and closed: a server under test
# ---------------------------------------------------------------------------


def test_data_after_the_peers_end_stream_is_stream_closed():
    # §5.1 half-closed (remote): frames other than WINDOW_UPDATE,
    # PRIORITY and RST_STREAM are a stream error of type STREAM_CLOSED.
    peer = server_under_test()
    peer.send(peer.headers(1, end_stream=True))
    raises(peer, StreamError, STREAM_CLOSED, data(1, 10))


def test_headers_after_the_peers_end_stream_is_stream_closed():
    # §5.1 half-closed (remote), as above, for a second HEADERS.
    peer = server_under_test()
    peer.send(peer.headers(1, end_stream=True))
    raises(peer, StreamError, STREAM_CLOSED, peer.headers(1, end_stream=True))


def test_window_update_and_rst_after_our_end_stream_are_silent():
    # §5.1 closed: WINDOW_UPDATE or RST_STREAM may arrive for a short
    # period after this endpoint sent END_STREAM.
    peer = server_under_test()
    peer.conn.on_request = lambda sid, headers, prio: peer.conn.respond(
        sid, RESPONSE, end_stream=True
    )
    peer.send(peer.headers(1, end_stream=True))
    peer.receive()
    silent(peer, window_update(1, 100), rst_stream(1, CANCEL))


def test_priority_on_a_closed_stream_is_allowed():
    # §5.1 closed: PRIORITY may be sent on a closed stream.
    peer = server_under_test()
    peer.conn.on_request = lambda sid, headers, prio: peer.conn.respond(
        sid, RESPONSE, end_stream=True
    )
    peer.send(peer.headers(1, end_stream=True))
    peer.receive()
    silent(peer, priority(1, depends_on=0, weight=1))


EARLY_HINTS = [(":status", "103"), ("link", "</style.css>; rel=preload")]


def test_early_hints_on_a_half_closed_remote_stream_are_sent():
    # §5.1 half-closed (remote): this endpoint may send any frame, and an
    # interim HEADERS leaves the stream as it is (RFC 9113 §8.1).
    peer = server_under_test()
    peer.send(peer.headers(1, end_stream=True))
    peer.conn.respond_informational(1, EARLY_HINTS)
    [hints] = peer.receive()
    assert (hints.type, hints.stream_id, hints.flags & END_STREAM) == (HEADERS, 1, 0)
    assert peer.conn.streams[1].state is StreamState.HALF_CLOSED_REMOTE


def _respond_closed(conn, sid):
    conn.respond(sid, RESPONSE, end_stream=True)


def _reset(conn, sid):
    conn.reset_stream(sid, ErrorCode.CANCEL)


@pytest.mark.parametrize("close", [_respond_closed, _reset], ids=["end-stream", "rst-stream"])
def test_early_hints_on_a_closed_stream_are_refused(close):
    # §5.1 closed: an endpoint must not send frames other than PRIORITY
    # on a closed stream, after either END_STREAM or RST_STREAM.
    peer = server_under_test()
    peer.send(peer.headers(1, end_stream=True))
    close(peer.conn, 1)
    peer.receive()
    with pytest.raises(StreamError):
        peer.conn.respond_informational(1, EARLY_HINTS)
    assert peer.receive() == []


# ---------------------------------------------------------------------------
# Connection-level frames and header blocks: a server under test
# ---------------------------------------------------------------------------


def test_settings_ack_is_not_answered():
    # §6.5.3: an ACK carries no parameters and is not acknowledged.
    silent(server_under_test(), settings(ack=True))


def test_ping_is_answered_with_its_payload():
    # §6.7: a PING without ACK is answered with an ACK and the same
    # eight octets.
    peer = server_under_test()
    peer.send(ping(b"12345678"))
    [answer] = peer.receive()
    assert (answer.type, answer.flags, answer.payload) == (PING, 0x1, b"12345678")


def test_goaway_is_accepted():
    # §6.8: a GOAWAY needs no answer.
    silent(server_under_test(), goaway(0))


def test_goaway_on_a_stream_is_protocol_error():
    # §6.8: GOAWAY applies to the connection, not to a stream.
    raises(
        server_under_test(), ProtocolError, PROTOCOL_ERROR,
        frame(GOAWAY, 0, 1, struct.pack(">II", 0, 0)),
    )


def test_continuation_completes_a_header_block():
    # §6.10: HEADERS without END_HEADERS, then CONTINUATION with it.
    peer = server_under_test()
    block = header_block(REQUEST)
    peer.send(peer.headers(1, end_stream=True, block=block[:5]), continuation(1, block[5:]))
    assert peer.requests == [1]


def test_continuation_completes_a_push_promise():
    # §6.6, §6.10: a PUSH_PROMISE without END_HEADERS, then CONTINUATION
    # with it; the promise carries the whole block's header list.
    peer = client_under_test()
    promises = []
    peer.conn.on_push_promise = lambda parent, pid, headers: promises.append((parent, pid, headers))
    block = header_block(PUSHED)
    peer.send(
        frame(PUSH_PROMISE, 0, 1, struct.pack(">I", 2) + block[:5]), continuation(1, block[5:])
    )
    assert promises == [(1, 2, PUSHED)]


def test_interleaved_frame_in_a_header_block_is_protocol_error():
    # §6.2, §6.10: a header block is contiguous; any other frame before
    # its last CONTINUATION is a PROTOCOL_ERROR.
    peer = server_under_test()
    block = header_block(REQUEST)
    peer.send(peer.headers(1, end_stream=True, block=block[:5]))
    raises(peer, ProtocolError, PROTOCOL_ERROR, peer.headers(3, end_stream=True))


def test_continuation_without_a_header_block_is_protocol_error():
    # §6.10: CONTINUATION follows a HEADERS, PUSH_PROMISE or
    # CONTINUATION without END_HEADERS, and nothing else.
    peer = server_under_test()
    raises(peer, ProtocolError, PROTOCOL_ERROR, continuation(1, header_block(REQUEST)))


def test_continuation_on_another_stream_is_protocol_error():
    peer = server_under_test()
    block = header_block(REQUEST)
    peer.send(peer.headers(1, end_stream=True, block=block[:5]))
    raises(peer, ProtocolError, PROTOCOL_ERROR, continuation(3, block[5:]))


# ---------------------------------------------------------------------------
# PUSH_PROMISE (§6.6, §8.2): a client under test
# ---------------------------------------------------------------------------


def test_push_promise_reserves_the_promised_stream():
    peer = client_under_test()
    peer.send(push_promise(1, 2, PUSHED), peer.headers(2, fields=RESPONSE))
    assert peer.promises == [2]
    assert peer.responses == [2]


def test_push_promise_from_a_client_is_protocol_error():
    # §8.2: a client cannot push; a server treats a PUSH_PROMISE as a
    # connection error of type PROTOCOL_ERROR.
    peer = server_under_test()
    peer.send(peer.headers(1))
    raises(peer, ProtocolError, PROTOCOL_ERROR, push_promise(1, 2, PUSHED))


def test_headers_on_a_stream_never_promised_is_protocol_error():
    # §8.2, §5.1 idle: a server opens a stream only by reserving it
    # with PUSH_PROMISE, never by sending HEADERS on it.
    peer = client_under_test()
    raises(peer, ProtocolError, PROTOCOL_ERROR, peer.headers(2, fields=RESPONSE))


def test_push_promise_with_push_disabled_is_protocol_error():
    # §8.2: a client that set SETTINGS_ENABLE_PUSH to 0 treats a
    # PUSH_PROMISE as a connection error of type PROTOCOL_ERROR.
    peer = client_under_test(Settings(enable_push=0))
    raises(peer, ProtocolError, PROTOCOL_ERROR, push_promise(1, 2, PUSHED))


@pytest.mark.parametrize(
    "first, second",
    [(None, 3), (4, 2), (2, 2)],
    ids=["odd", "lower", "reused"],
)
def test_promised_ids_are_even_and_increasing(first, second):
    # §5.1.1: a server reserves even identifiers, each greater than any
    # it has opened or reserved before.
    peer = client_under_test()
    if first is not None:
        peer.send(push_promise(1, first, PUSHED))
    raises(peer, ProtocolError, PROTOCOL_ERROR, push_promise(1, second, PUSHED))


def test_push_promise_on_a_closed_parent_is_protocol_error():
    # §6.6: PUSH_PROMISE on a stream that is neither open nor half-closed
    # (local) is a connection error of type PROTOCOL_ERROR.
    peer = client_under_test()
    peer.send(peer.headers(1, end_stream=True, fields=RESPONSE))
    raises(peer, ProtocolError, PROTOCOL_ERROR, push_promise(1, 2, PUSHED))


def test_data_on_a_reserved_stream_is_protocol_error():
    # §5.1 reserved (remote): only HEADERS, RST_STREAM and PRIORITY.
    peer = client_under_test()
    peer.send(push_promise(1, 2, PUSHED))
    raises(peer, ProtocolError, PROTOCOL_ERROR, data(2, 10))


# ---------------------------------------------------------------------------
# §5.1 closed after this endpoint's RST_STREAM: a client under test
# ---------------------------------------------------------------------------


def cancelled_push(local: Settings = None, cls=H2Connection):
    """A client under test that cancelled promised stream 2."""
    peer = client_under_test(local, cls)
    peer.send(push_promise(1, 2, PUSHED))
    peer.conn.reset_stream(2, CANCEL)
    assert [(f.type, f.stream_id) for f in peer.receive()] == [(RST_STREAM, 2)]
    return peer


def test_data_after_our_rst_stream_is_ignored():
    # §5.1 closed: frames in flight when this endpoint sent RST_STREAM
    # are ignored.
    peer = cancelled_push()
    silent(peer, data(2, 10, end_stream=True))
    assert peer.bodies == []


def test_headers_after_our_rst_stream_are_ignored():
    peer = cancelled_push()
    silent(peer, peer.headers(2, fields=RESPONSE))
    assert peer.responses == []


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6(d): DATA on a reset stream is not counted "
    "against the connection window (§6.9)",
)
def test_data_after_our_rst_stream_counts_against_the_connection_window():
    # §6.9: flow-controlled frames count against the connection window
    # even on a stream the receiver has reset.  Half the 15 MiB window
    # is spent once both halves below arrive, so the client credits it.
    local = Settings(initial_window_size=16 * 1024 * 1024, max_frame_size=16_777_215)
    peer = cancelled_push(local)
    peer.send(peer.headers(1, fields=RESPONSE))
    peer.send(data(2, 4 * 1024 * 1024), data(1, 4 * 1024 * 1024))
    updates = of_type(peer.receive(), WINDOW_UPDATE)
    assert [(f.stream_id, f.increment) for f in updates] == [(0, 8 * 1024 * 1024)]


def test_headers_after_both_end_streams_is_stream_closed():
    # §5.1 closed: any frame after the peer's END_STREAM, but PRIORITY,
    # WINDOW_UPDATE and RST_STREAM, is a connection error of type
    # STREAM_CLOSED.
    peer = client_under_test()
    peer.send(peer.headers(1, fields=RESPONSE), data(1, 10, end_stream=True))
    raises(peer, ProtocolError, STREAM_CLOSED, peer.headers(1, fields=RESPONSE))


# ---------------------------------------------------------------------------
# HTTP/2 over QUIC: bodies on their own QUIC streams, HEADERS on the
# control stream, so a body can overtake its HEADERS
# ---------------------------------------------------------------------------


def test_quic_headers_after_their_body_still_reach_the_client():
    # Known deviation 7 (EXPERIMENTS.md): the body and its fin arrive
    # first and close the stream; the HEADERS still become the response.
    peer = client_under_test(cls=H2OverQuicConnection)
    peer.endpoint.on_stream_data(1, Span(b"d" * 10), True)
    assert peer.bodies == [(1, 10)]
    peer.send(peer.headers(1, fields=RESPONSE))
    assert peer.responses == [1]


def test_quic_headers_of_a_cancelled_push_are_ignored():
    # §5.1 closed, after this endpoint's RST_STREAM, on either transport.
    peer = cancelled_push(cls=H2OverQuicConnection)
    peer.endpoint.on_stream_data(2, Span(b"d" * 10), True)
    silent(peer, peer.headers(2, fields=RESPONSE))
    assert peer.responses == [] and peer.bodies == []


def test_quic_push_body_before_its_promise_waits_for_the_headers():
    # A pushed body that outran its PUSH_PROMISE waits until the
    # stream's response HEADERS make DATA legal (§5.1 reserved).
    peer = client_under_test(cls=H2OverQuicConnection)
    peer.endpoint.on_stream_data(2, Span(b"d" * 10), True)
    peer.send(push_promise(1, 2, PUSHED))
    assert peer.bodies == []
    peer.send(peer.headers(2, fields=RESPONSE))
    assert peer.responses == [2] and peer.bodies == [(2, 10)]
