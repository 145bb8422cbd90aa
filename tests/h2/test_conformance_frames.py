"""RFC 7540 frame rules outside §5.1 and §6.9, checked by a peer written
from the RFC.

Each case drives one ``H2Connection`` with frames packed by
``tests/support/h2peer.py`` and reads back what it raises.  The model
raises every violation (§5.4), with its RFC 7540 §7 ``error_code``: a
connection error as :class:`ProtocolError`, a stream error as
:class:`StreamError`.
"""

import pytest

from repro.errors import FlowControlError, ProtocolError, StreamError
from repro.h2 import H2Connection, Settings, StreamState
from repro.mechanisms.h2quic import H2OverQuicConnection
from tests.support.h2peer import (
    END_HEADERS,
    END_STREAM,
    FLOW_CONTROL_ERROR,
    FRAME_SIZE_ERROR,
    HEADERS,
    PROTOCOL_ERROR,
    REQUEST,
    SETTINGS,
    SETTINGS_ENABLE_PUSH,
    SETTINGS_HEADER_TABLE_SIZE,
    SETTINGS_INITIAL_WINDOW_SIZE,
    H2Peer,
    frame,
    header_block,
    of_type,
    settings_pairs,
)


def raises(peer, error, code, *frames):
    """Send ``frames``; the connection raises ``error`` with ``code``."""
    with pytest.raises(error) as excinfo:
        peer.send(*frames)
    assert type(excinfo.value) is error
    assert excinfo.value.error_code == code


# ---------------------------------------------------------------------------
# §6.5.3: a SETTINGS frame's values are processed in the order they appear
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("role", ["server", "client"])
def test_an_invalid_enable_push_before_a_valid_repeat_is_protocol_error(role):
    # §6.5.2: ENABLE_PUSH other than 0 or 1 is a PROTOCOL_ERROR.  The
    # later 1 does not make the 5 before it valid: each value is
    # processed in turn.
    peer = H2Peer(role)
    peer.handshake()
    raises(
        peer, ProtocolError, PROTOCOL_ERROR,
        settings_pairs((SETTINGS_ENABLE_PUSH, 5), (SETTINGS_ENABLE_PUSH, 1)),
    )


@pytest.mark.parametrize("role", ["server", "client"])
def test_an_oversized_initial_window_before_a_valid_repeat_is_flow_control_error(role):
    # §6.5.2: INITIAL_WINDOW_SIZE above 2^31-1 is a FLOW_CONTROL_ERROR,
    # whatever value of it comes later in the frame.
    peer = H2Peer(role)
    peer.handshake()
    raises(
        peer, FlowControlError, FLOW_CONTROL_ERROR,
        settings_pairs((SETTINGS_INITIAL_WINDOW_SIZE, 2**31), (SETTINGS_INITIAL_WINDOW_SIZE, 100)),
    )


def test_valid_repeats_are_accepted_and_the_last_value_stands():
    # §6.5.3: a valid earlier value is applied and then replaced; the
    # frame is acknowledged once.
    peer = H2Peer("server")
    peer.handshake()
    peer.send(
        settings_pairs(
            (SETTINGS_INITIAL_WINDOW_SIZE, 2**31 - 1), (SETTINGS_INITIAL_WINDOW_SIZE, 100)
        )
    )
    assert peer.conn.remote_settings.initial_window_size == 100
    assert len(of_type(peer.receive(), SETTINGS)) == 1


def test_every_header_table_size_of_a_frame_reaches_the_encoder():
    # RFC 7541 §4.2: when the table size limit changes more than once
    # between two header blocks, the next block signals the smallest
    # size in that interval first (0: `20`), then the final one (4 096:
    # `3fe11f`).  A response to the request follows (`88`, :status 200).
    peer = H2Peer("server")
    peer.conn.on_request = lambda sid, headers, prio: peer.conn.respond(
        sid, [(":status", "200")], end_stream=True
    )
    peer.handshake()
    peer.send(settings_pairs((SETTINGS_HEADER_TABLE_SIZE, 0), (SETTINGS_HEADER_TABLE_SIZE, 4096)))
    peer.send(frame(HEADERS, END_HEADERS | END_STREAM, 1, header_block(REQUEST)))
    (response,) = of_type(peer.receive(), HEADERS)
    assert response.payload.hex() == "203fe11f88"


# ---------------------------------------------------------------------------
# §4.2: a frame longer than the receiver's SETTINGS_MAX_FRAME_SIZE
# ---------------------------------------------------------------------------


def request_of(size: int) -> bytes:
    """A HEADERS frame of ``size`` payload octets: the request, then
    ``x-pad`` fields of 108 octets each and one that takes the rest."""
    fields = list(REQUEST)
    rest = size - len(header_block(fields))
    while rest > 0:
        value = min(rest - 8, 100)  # a field is 8 octets plus its value
        fields.append(("x-pad", "p" * value))
        rest -= 8 + value
    block = header_block(fields)
    assert len(block) == size
    return frame(HEADERS, END_HEADERS | END_STREAM, 1, block)


def test_a_frame_over_max_frame_size_is_frame_size_error():
    # §4.2: a frame longer than SETTINGS_MAX_FRAME_SIZE (16 384 here,
    # the initial value) is FRAME_SIZE_ERROR; one that carries a header
    # block is a connection error, since it changes the HPACK context.
    peer = H2Peer("server")
    peer.handshake()
    raises(peer, ProtocolError, FRAME_SIZE_ERROR, request_of(20_000))


def test_a_frame_of_exactly_max_frame_size_is_accepted():
    peer = H2Peer("server")
    requests = []
    peer.conn.on_request = lambda sid, headers, prio: requests.append(sid)
    peer.handshake()
    peer.send(request_of(16_384))
    assert requests == [1]


# ---------------------------------------------------------------------------
# §8.1.2: a malformed request is a stream error PROTOCOL_ERROR (§8.1.2.6)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fields",
    [
        # §8.1.2: field names are lower case.
        REQUEST + [("User-Agent", "peer")],
        # §8.1.2.2: no connection-specific field.
        REQUEST + [("connection", "keep-alive")],
        # §8.1.2.3: a request carries :method, :scheme and :path.
        REQUEST[:3],
        # §8.1.2.1: every pseudo-header precedes every regular field.
        REQUEST[:3] + [("user-agent", "peer"), (":path", "/")],
        # §8.1.2.1: a request carries only the pseudo-headers it defines.
        REQUEST + [(":foo", "bar")],
    ],
    ids=["uppercase-name", "connection-field", "no-path", "pseudo-after-regular", "unknown-pseudo"],
)
def test_a_malformed_request_is_a_stream_error(fields):
    peer = H2Peer("server")
    requests = []
    peer.conn.on_request = lambda sid, headers, prio: requests.append(sid)
    peer.handshake()
    with pytest.raises(StreamError) as excinfo:
        peer.send(frame(HEADERS, END_HEADERS | END_STREAM, 1, header_block(fields)))
    assert (excinfo.value.stream_id, excinfo.value.error_code) == (1, PROTOCOL_ERROR)
    assert requests == []


# ---------------------------------------------------------------------------
# §8.1.2: a malformed response is a stream error PROTOCOL_ERROR (§8.1.2.6)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fields",
    [
        # §8.1.2: field names are lower case.
        [(":status", "200"), ("Content-Type", "text/html")],
        # §8.1.2.2: no connection-specific field.
        [(":status", "200"), ("connection", "keep-alive")],
        # §8.1.2.1: every pseudo-header precedes every regular field.
        [("content-type", "text/html"), (":status", "200")],
        # §8.1.2.1: a response carries only the pseudo-header it defines,
        # once, and none of a request's.
        [(":status", "200"), (":foo", "bar")],
        [(":status", "200"), (":status", "204")],
        [(":status", "200"), (":path", "/")],
        # §8.1.2.4: a response carries :status.
        [("content-type", "text/html")],
    ],
    ids=[
        "uppercase-name",
        "connection-field",
        "pseudo-after-regular",
        "unknown-pseudo",
        "repeated-pseudo",
        "request-pseudo",
        "no-status",
    ],
)
def test_a_malformed_response_is_a_stream_error(fields):
    peer = H2Peer("client")
    responses = []
    peer.conn.on_response = lambda sid, headers: responses.append(sid)
    peer.conn.request(REQUEST)
    peer.handshake()
    with pytest.raises(StreamError) as excinfo:
        peer.send(frame(HEADERS, END_HEADERS | END_STREAM, 1, header_block(fields)))
    assert (excinfo.value.stream_id, excinfo.value.error_code) == (1, PROTOCOL_ERROR)
    assert responses == []


# ---------------------------------------------------------------------------
# §8.1: a second HEADERS block on an open request stream, or one after the
# final response, is trailers
# ---------------------------------------------------------------------------


def test_request_trailers_end_the_stream_and_are_not_a_second_request():
    peer = H2Peer("server")
    requests, ended = [], []
    peer.conn.on_request = lambda sid, headers, prio: requests.append((sid, headers))
    peer.conn.on_stream_end = ended.append
    peer.handshake()
    peer.send(frame(HEADERS, END_HEADERS, 1, header_block(REQUEST)))
    peer.send(frame(HEADERS, END_HEADERS | END_STREAM, 1, header_block([("x-trailer", "1")])))
    assert requests == [(1, REQUEST)]
    assert ended == [1]
    assert peer.conn.streams[1].state is StreamState.HALF_CLOSED_REMOTE


def test_request_trailers_without_end_stream_are_a_stream_error():
    peer = H2Peer("server")
    requests = []
    peer.conn.on_request = lambda sid, headers, prio: requests.append(sid)
    peer.handshake()
    peer.send(frame(HEADERS, END_HEADERS, 1, header_block(REQUEST)))
    with pytest.raises(StreamError) as excinfo:
        peer.send(frame(HEADERS, END_HEADERS, 1, header_block([("x-trailer", "1")])))
    assert (excinfo.value.stream_id, excinfo.value.error_code) == (1, PROTOCOL_ERROR)
    assert requests == [1]


@pytest.mark.parametrize("cls", [H2Connection, H2OverQuicConnection], ids=["tcp", "quic"])
def test_response_trailers_end_the_stream_and_are_not_a_second_response(cls):
    # An interim response (103) comes before the final one and is not
    # the response: the block after it still is.
    peer = H2Peer("client", cls=cls)
    informational, responses, ended = [], [], []
    peer.conn.on_informational = lambda sid, headers: informational.append(sid)
    peer.conn.on_response = lambda sid, headers: responses.append((sid, headers))
    peer.conn.on_stream_end = ended.append
    peer.conn.request(REQUEST)
    peer.handshake()
    peer.send(frame(HEADERS, END_HEADERS, 1, header_block([(":status", "103")])))
    peer.send(frame(HEADERS, END_HEADERS, 1, header_block([(":status", "200")])))
    peer.send(frame(HEADERS, END_HEADERS | END_STREAM, 1, header_block([("x-trailer", "1")])))
    assert informational == [1]
    assert responses == [(1, [(":status", "200")])]
    assert ended == [1]
    assert peer.conn.streams[1].response_headers == [(":status", "200")]


@pytest.mark.parametrize("cls", [H2Connection, H2OverQuicConnection], ids=["tcp", "quic"])
def test_response_trailers_without_end_stream_are_a_stream_error(cls):
    peer = H2Peer("client", cls=cls)
    responses = []
    peer.conn.on_response = lambda sid, headers: responses.append(sid)
    peer.conn.request(REQUEST)
    peer.handshake()
    peer.send(frame(HEADERS, END_HEADERS, 1, header_block([(":status", "200")])))
    with pytest.raises(StreamError) as excinfo:
        peer.send(frame(HEADERS, END_HEADERS, 1, header_block([("x-trailer", "1")])))
    assert (excinfo.value.stream_id, excinfo.value.error_code) == (1, PROTOCOL_ERROR)
    assert responses == [1]


# ---------------------------------------------------------------------------
# §6.5.2: the encoder works within the peer's header table
# ---------------------------------------------------------------------------


def test_the_encoder_is_sized_from_the_peers_header_table_size():
    # SETTINGS_HEADER_TABLE_SIZE bounds the table the *peer* decodes
    # with; its initial value is 4 096, whatever this endpoint's own
    # decoder advertises.
    peer = H2Peer("client", settings=Settings(header_table_size=8192))
    peer.handshake()
    assert peer.conn.remote_settings.header_table_size == 4096
    assert peer.conn._encoder.table.max_size == 4096
