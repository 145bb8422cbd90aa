"""A minimal HTTP/1.1 implementation over the simulated TCP stream.

The paper positions H2 against its predecessor throughout (§1, §3:
Wang et al., de Saxcé et al., Varvello et al.), and its testbed records
H1 versions of sites that do not speak H2 (§4.2).  This module provides
the H1 side of that comparison: textual requests/responses with
``Content-Length`` framing, one outstanding request per connection
(no pipelining, as deployed browsers behave), keep-alive reuse.

Server Push does not exist here — that is the point of the baseline.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..errors import ProtocolError
from ..netsim.transport import Endpoint
from ..span import Span

Header = Tuple[str, str]

#: What an HTTP/1.1 client announces itself as.
_USER_AGENT = "repro-browser/1.0 (HTTP/1.1)"

_CRLF = b"\r\n"
_HEADER_END = b"\r\n\r\n"


class H1ClientConnection:
    """One keep-alive HTTP/1.1 client connection (serial requests).

    It speaks the client callbacks of
    :class:`~repro.h2.connection.H2Connection` for the exchange in
    flight, under the number the caller gave it: ``on_informational``
    and ``on_response`` receive ``(stream_id, headers)`` with the status
    line as a ``:status`` pseudo-header, ``on_data`` receives
    ``(stream_id, span)`` and ``on_stream_end`` ``(stream_id)``.
    """

    def __init__(self, endpoint: Endpoint):
        self._endpoint = endpoint
        endpoint.on_data = self._on_data
        endpoint.on_writable = self._pump
        self._send_buffer = bytearray()
        self._recv_buffer = bytearray()
        self._expecting_body: Optional[int] = None
        self._body_received = 0
        self._stream_id = 0
        self.busy = False

        self.on_response: Optional[Callable[[int, List[Header]], None]] = None
        #: Interim (1xx) response heads, e.g. 103 Early Hints (RFC 8297).
        self.on_informational: Optional[Callable[[int, List[Header]], None]] = None
        self.on_data: Optional[Callable[[int, Span], None]] = None
        self.on_stream_end: Optional[Callable[[int], None]] = None

    def release(self) -> None:
        """Cut this connection loose from its transport endpoint and
        from the exchange callbacks, which lead back to the pool."""
        self._endpoint.release()
        self.on_response = self.on_informational = None
        self.on_data = self.on_stream_end = None

    # ------------------------------------------------------------------
    def request(self, stream_id: int, headers: List[Header]) -> None:
        """Send the H2-form request ``headers`` as exchange ``stream_id``.

        The request line comes from ``:method`` and ``:path``, ``Host``
        from ``:authority``; the other fields are H2's (priority,
        compression, cache digest), and an H1 client sends its own
        user-agent in their place.
        """
        if self.busy:
            raise ProtocolError("HTTP/1.1 connection already has a request in flight")
        self.busy = True
        self._stream_id = stream_id
        fields = dict(headers)
        wire = (
            f"{fields[':method']} {fields[':path']} HTTP/1.1\r\n"
            f"Host: {fields[':authority']}\r\n"
            f"Connection: keep-alive\r\n"
            f"user-agent: {_USER_AGENT}\r\n\r\n"
        ).encode("ascii")
        self._send_buffer.extend(wire)
        self._pump()

    def _pump(self) -> None:
        while self._send_buffer:
            accepted = self._endpoint.send(bytes(self._send_buffer))
            if accepted == 0:
                return
            del self._send_buffer[:accepted]

    # ------------------------------------------------------------------
    def _on_data(self, data: bytes) -> None:
        self._recv_buffer.extend(data)
        self._process()

    def _process(self) -> None:
        while self._expecting_body is None:
            end = self._recv_buffer.find(_HEADER_END)
            if end == -1:
                return
            head = bytes(self._recv_buffer[:end]).decode("ascii", errors="replace")
            del self._recv_buffer[: end + len(_HEADER_END)]
            status, headers = _parse_response_head(head)
            headers.insert(0, (":status", str(status)))
            if 100 <= status < 200:
                # Interim response: header-only, no body, the final
                # response to the same request follows on the wire.
                if self.on_informational is not None:
                    self.on_informational(self._stream_id, headers)
                continue
            self._expecting_body = _content_length(headers)
            self._body_received = 0
            if self.on_response is not None:
                self.on_response(self._stream_id, headers)
        if self._expecting_body is not None and self._recv_buffer:
            take = min(len(self._recv_buffer), self._expecting_body - self._body_received)
            if take > 0:
                chunk = bytes(self._recv_buffer[:take])
                del self._recv_buffer[:take]
                self._body_received += take
                if self.on_data is not None:
                    self.on_data(self._stream_id, Span(chunk))
        if (
            self._expecting_body is not None
            and self._body_received >= self._expecting_body
        ):
            self._expecting_body = None
            self.busy = False
            if self.on_stream_end is not None:
                self.on_stream_end(self._stream_id)


class H1ServerConnection:
    """Server side: parses serial requests, answers via a handler."""

    def __init__(
        self,
        endpoint: Endpoint,
        handler: Callable[[str, str, List[Header]], Tuple[int, List[Header], bytes]],
        interim_handler: Optional[
            Callable[[str, str, List[Header]], List[Tuple[int, List[Header]]]]
        ] = None,
    ):
        self._endpoint = endpoint
        self._handler = handler
        #: Optional hook returning interim (1xx) responses to write
        #: before the final one — the RFC 8297 Early Hints path.
        self._interim_handler = interim_handler
        endpoint.on_data = self._on_data
        endpoint.on_writable = self._pump
        self._recv_buffer = bytearray()
        self._send_buffer = bytearray()

    def release(self) -> None:
        """Cut this connection loose from its transport endpoint and
        from the server's handlers."""
        self._endpoint.release()
        self._handler = self._interim_handler = None

    def _on_data(self, data: bytes) -> None:
        self._recv_buffer.extend(data)
        while True:
            end = self._recv_buffer.find(_HEADER_END)
            if end == -1:
                return
            head = bytes(self._recv_buffer[:end]).decode("ascii", errors="replace")
            del self._recv_buffer[: end + len(_HEADER_END)]
            method, path, headers = _parse_request_head(head)
            host = next((v for k, v in headers if k.lower() == "host"), "")
            url = f"https://{host}{path}"
            if self._interim_handler is not None:
                for interim_status, interim_headers in self._interim_handler(
                    method, url, headers
                ):
                    self._write_interim(interim_status, interim_headers)
            status, response_headers, body = self._handler(method, url, headers)
            self._respond(status, response_headers, body)

    def _write_interim(self, status: int, headers: List[Header]) -> None:
        """Write an interim response head: no body, no Content-Length."""
        reason = "Early Hints" if status == 103 else "Informational"
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines += [f"{name}: {value}" for name, value in headers
                  if not name.startswith(":")]
        wire = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        self._send_buffer.extend(wire)
        self._pump()

    def _respond(self, status: int, headers: List[Header], body: bytes) -> None:
        lines = [f"HTTP/1.1 {status} {'OK' if status == 200 else 'Not Found'}"]
        lines += [f"{name}: {value}" for name, value in headers
                  if not name.startswith(":")]
        lines.append(f"Content-Length: {len(body)}")
        wire = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body
        self._send_buffer.extend(wire)
        self._pump()

    def _pump(self) -> None:
        while self._send_buffer:
            accepted = self._endpoint.send(bytes(self._send_buffer))
            if accepted == 0:
                return
            del self._send_buffer[:accepted]


# ----------------------------------------------------------------------
def _parse_response_head(head: str) -> Tuple[int, List[Header]]:
    lines = head.split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ProtocolError(f"malformed HTTP/1.1 status line: {lines[0]!r}")
    return int(parts[1]), _parse_headers(lines[1:])


def _parse_request_head(head: str) -> Tuple[str, str, List[Header]]:
    lines = head.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"malformed HTTP/1.1 request line: {lines[0]!r}")
    return parts[0], parts[1], _parse_headers(lines[1:])


def _parse_headers(lines: List[str]) -> List[Header]:
    headers: List[Header] = []
    for line in lines:
        if not line:
            continue
        if ":" not in line:
            raise ProtocolError(f"malformed header line: {line!r}")
        name, value = line.split(":", 1)
        headers.append((name.strip().lower(), value.strip()))
    return headers


def _content_length(headers: List[Header]) -> int:
    """The body length a response head declares; no field, no body.

    RFC 7230 §3.3.2: the value is ``1*DIGIT``, and repeated fields must
    carry the same value.  Anything else is a framing error.
    """
    length: Optional[int] = None
    for name, value in headers:
        if name != "content-length":
            continue
        if not (value.isascii() and value.isdigit()):
            raise ProtocolError(f"bad content-length: {value!r}")
        if length is not None and int(value) != length:
            raise ProtocolError(f"conflicting content-length values: {length}, {value}")
        length = int(value)
    return length or 0
