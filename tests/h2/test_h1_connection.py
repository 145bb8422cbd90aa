"""Unit tests for the HTTP/1.1 connection layer."""

import pytest

from repro.errors import ProtocolError
from repro.h1.connection import (
    H1ClientConnection,
    H1ServerConnection,
    _content_length,
    _parse_request_head,
    _parse_response_head,
)
from repro.netsim import DSL_TESTBED, Topology
from repro.sim import Simulator


def make_pair(handler):
    sim = Simulator()
    topo = Topology(sim, DSL_TESTBED)
    topo.add_host("1.1.1.1", ["h1.example"])
    topo.prewarm_dns("h1.example")
    pair = {}

    def on_conn(tcp):
        pair["server"] = H1ServerConnection(tcp.server, handler)
        pair["client"] = H1ClientConnection(tcp.client)

    topo.open_connection("h1.example", on_conn)
    sim.run()
    return sim, pair["client"]


def echo_handler(method, url, headers):
    body = f"{method} {url}".encode("ascii")
    return 200, [("content-type", "text/plain")], body


def get(path, host="h1.example"):
    """A request in the H2 form the client surface takes."""
    return [
        (":method", "GET"),
        (":scheme", "https"),
        (":authority", host),
        (":path", path),
        ("user-agent", "an H2 client"),
    ]


def test_request_response_round_trip():
    sim, client = make_pair(echo_handler)
    got = {}
    client.on_response = lambda sid, headers: got.setdefault("head", (sid, headers[0]))
    chunks = []
    client.on_data = lambda sid, span: chunks.append((sid, span.tobytes()))
    client.on_stream_end = lambda sid: got.setdefault("done", sid)
    client.request(4, get("/index.html"))
    sim.run()
    assert got["head"] == (4, (":status", "200"))
    assert b"".join(data for _sid, data in chunks) == b"GET https://h1.example/index.html"
    assert {sid for sid, _data in chunks} == {4}
    assert got["done"] == 4


def test_request_wire_bytes():
    """The request line and Host come from the pseudo-headers; the H2
    fields are not sent, the H1 client's own user-agent is."""
    sim, client = make_pair(echo_handler)
    sent = []
    send = client._endpoint.send
    client._endpoint.send = lambda data: sent.append(bytes(data)) or send(data)
    client.request(0, get("/a?b=1"))
    assert sent[0] == (
        b"GET /a?b=1 HTTP/1.1\r\nHost: h1.example\r\nConnection: keep-alive\r\n"
        b"user-agent: repro-browser/1.0 (HTTP/1.1)\r\n\r\n"
    )


def test_serial_requests_reuse_connection():
    sim, client = make_pair(echo_handler)
    results = []
    chunks = []
    client.on_response = lambda sid, headers: None
    client.on_data = lambda sid, span: chunks.append(span.tobytes())

    def complete(sid):
        results.append((sid, b"".join(chunks)))
        chunks.clear()
        if len(results) == 1:
            client.request(1, get("/second"))

    client.on_stream_end = complete
    client.request(0, get("/first"))
    sim.run()
    assert len(results) == 2
    assert results[0][0] == 0 and b"/first" in results[0][1]
    assert results[1][0] == 1 and b"/second" in results[1][1]


def test_concurrent_request_rejected():
    sim, client = make_pair(echo_handler)
    client.on_response = lambda *args: None
    client.on_data = lambda *args: None
    client.on_stream_end = lambda sid: None
    client.request(0, get("/a"))
    with pytest.raises(ProtocolError):
        client.request(1, get("/b"))


def test_large_body_streams_through():
    big = b"z" * 300_000

    def handler(method, url, headers):
        return 200, [("content-type", "application/octet-stream")], big

    sim, client = make_pair(handler)
    received = []
    client.on_response = lambda *args: None
    client.on_data = lambda sid, span: received.append(span)
    done = {}
    client.on_stream_end = lambda sid: done.setdefault("t", sim.now)
    client.request(0, get("/big"))
    sim.run()
    assert sum(map(len, received)) == len(big)
    assert "t" in done


def test_404_status_propagated():
    def handler(method, url, headers):
        return 404, [("content-type", "text/plain")], b"nope"

    sim, client = make_pair(handler)
    got = {}
    client.on_response = lambda sid, headers: got.setdefault("status", dict(headers)[":status"])
    client.on_data = lambda *args: None
    client.on_stream_end = lambda sid: None
    client.request(0, get("/missing"))
    sim.run()
    assert got["status"] == "404"


class _Endpoint:
    """A transport endpoint that swallows what the client sends."""

    on_data = on_writable = None

    def send(self, data):
        return len(data)


def _exchange(response_head: bytes):
    """Feed ``response_head`` and a five-octet body to a client with
    one request in flight; returns what the client reported."""
    client = H1ClientConnection(_Endpoint())
    seen = []
    client.on_response = lambda sid, headers: seen.append(("response", sid))
    client.on_data = lambda sid, span: seen.append(("data", span.tobytes()))
    client.on_stream_end = lambda sid: seen.append(("end", sid))
    client.request(0, get("/x"))
    client._on_data(response_head + b"hello")
    return seen


@pytest.mark.parametrize(
    "field_lines",
    [
        b"Content-Length: -5\r\n",
        b"Content-Length: 5_0\r\n",
        b"Content-Length: +5\r\n",
        b"Content-Length: 5, 5\r\n",
        b"Content-Length: 5\r\nContent-Length: 7\r\n",
    ],
    ids=["negative", "underscore", "sign", "list", "conflicting"],
)
def test_bad_content_length_is_a_framing_error(field_lines):
    """RFC 7230 §3.3.2: ``1*DIGIT``, and duplicates must agree."""
    with pytest.raises(ProtocolError, match="content-length"):
        _exchange(b"HTTP/1.1 200 OK\r\n" + field_lines + b"\r\n")


def test_agreeing_duplicate_content_lengths_frame_the_body():
    seen = _exchange(
        b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 005\r\n\r\n"
    )
    assert seen == [("response", 0), ("data", b"hello"), ("end", 0)]


class TestParsers:
    def test_response_head(self):
        status, headers = _parse_response_head(
            "HTTP/1.1 200 OK\r\nContent-Type: text/css\r\nX-A: b"
        )
        assert status == 200
        assert ("content-type", "text/css") in headers

    def test_request_head(self):
        method, path, headers = _parse_request_head(
            "GET /x/y HTTP/1.1\r\nHost: h.example"
        )
        assert method == "GET"
        assert path == "/x/y"
        assert ("host", "h.example") in headers

    def test_malformed_status_line_rejected(self):
        with pytest.raises(ProtocolError):
            _parse_response_head("garbage")

    def test_malformed_request_line_rejected(self):
        with pytest.raises(ProtocolError):
            _parse_request_head("GET /missing-version")

    def test_content_length(self):
        assert _content_length([("content-length", "42")]) == 42
        assert _content_length([]) == 0
        with pytest.raises(ProtocolError):
            _content_length([("content-length", "abc")])

    @pytest.mark.parametrize("value", ["-5", "5_0", " 5", "٥"])
    def test_content_length_is_digits_only(self, value):
        with pytest.raises(ProtocolError):
            _content_length([("content-length", value)])

    def test_conflicting_content_lengths_rejected(self):
        with pytest.raises(ProtocolError, match="conflicting"):
            _content_length([("content-length", "5"), ("content-length", "50")])
