"""HTTP/1.1 replay server (the H1 arm of the comparison)."""

from __future__ import annotations

from typing import List, Tuple

from ..html.resources import ResourceType
from ..netsim.tcp import TcpConnection
from ..replay.matcher import RequestMatcher
from ..trace.core import EarlyHintsSent
from .connection import H1ServerConnection

Header = Tuple[str, str]


class H1ReplayServer:
    """Serves recorded responses over HTTP/1.1 (no push, no streams).

    A push strategy may still be attached: plans carrying
    ``early_hint_urls`` are honored as interim 103 responses — Early
    Hints is the one server-initiated mechanism that works without
    HTTP/2 framing (RFC 8297 defines the 1xx wire form) — while
    pushed/hinted URL lists are ignored, as a push-less origin would.
    """

    #: What the browser must speak to this server.
    protocol = "h1"

    def __init__(self, ip: str, matcher: RequestMatcher, strategy=None, tracer=None):
        self.ip = ip
        self.matcher = matcher
        self.strategy = strategy
        self.tracer = tracer
        self.requests_served = 0
        self.connections: List[H1ServerConnection] = []

    def accept(self, tcp: TcpConnection) -> H1ServerConnection:
        interim = self._interims if self.strategy is not None else None
        conn = H1ServerConnection(tcp.server, self._handle, interim_handler=interim)
        self.connections.append(conn)
        return conn

    def release(self) -> None:
        """As :meth:`repro.server.h2server.ReplayServer.release`."""
        for conn in self.connections:
            conn.release()

    def _interims(self, method: str, url: str, _headers) -> List[tuple]:
        """103 Early Hints ahead of the base document, when planned."""
        record = self.matcher.match(url, method=method)
        if record is None or record.rtype != ResourceType.HTML:
            return []
        # H1 cannot push, so nothing is push-authoritative here.
        plan = self.strategy.plan(url, self.matcher._db, lambda _url: False)
        if not plan.early_hint_urls:
            return []
        if self.tracer is not None:
            self.tracer.emit(EarlyHintsSent, f"h1-{self.ip}", 0, len(plan.early_hint_urls))
        return [
            (103, [("link", f"<{u}>; rel=preload") for u in plan.early_hint_urls])
        ]

    def _handle(self, method: str, url: str, _headers) -> Tuple[int, list, bytes]:
        self.requests_served += 1
        record = self.matcher.match(url, method=method)
        if record is None:
            return 404, [("content-type", "text/plain")], b"not found"
        headers = [
            (name, value)
            for name, value in record.headers
            if name.lower() != "content-length"
        ]
        return record.status, headers, record.body
