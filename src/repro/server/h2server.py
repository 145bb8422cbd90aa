"""The replay web server (h2o + FastCGI record module equivalent).

One :class:`ReplayServer` instance stands in for one origin server in
the testbed topology (one per recorded IP, as Mahimahi spawns them).
It answers requests from the record database, and — on the base
document request — consults the configured push strategy, issues
PUSH_PROMISEs, and installs the interleaving scheduler when the plan
asks for it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..browser.priorities import weight_for
from ..errors import ProtocolError
from ..h2.cache_digest import CacheDigest
from ..h2.connection import H2Connection
from ..h2.constants import StreamState
from ..html.resources import ResourceType, split_url
from .scheduler import InterleavingScheduler
from ..mechanisms.h2quic import h2_endpoint
from ..netsim.tcp import TcpConnection
from ..replay.certs import Certificate
from ..replay.matcher import RequestMatcher
from ..replay.recorddb import ResponseRecord
from ..sim import Simulator
from ..strategies.base import PushPlan, PushStrategy
from ..trace.core import EarlyHintsSent

Header = Tuple[str, str]

#: Module alias: a module global loads in a quarter of the time of an
#: enum attribute, and every request is classified.
_HTML = ResourceType.HTML


class ReplayServer:
    """An HTTP/2 origin server serving recorded responses."""

    #: What the browser must speak to this server.
    protocol = "h2"

    def __init__(
        self,
        sim: Simulator,
        ip: str,
        matcher: RequestMatcher,
        certificate: Certificate,
        strategy: Optional[PushStrategy] = None,
        server_delay_ms: float = 0.0,
        chunk_size: int = 1_400,
        tracer=None,
    ):
        # h2o caps DATA frames near the MSS ("latency-optimized" write
        # path) so receivers can process bytes as segments arrive; a
        # 16 KB frame would stall the client until its last segment.
        self.sim = sim
        #: Optional event tracer, handed to every accepted connection.
        self.tracer = tracer
        self.ip = ip
        self.matcher = matcher
        self.certificate = certificate
        self.strategy = strategy
        self.server_delay_ms = server_delay_ms
        self.chunk_size = chunk_size
        self.connections: List[H2Connection] = []
        #: Wire-level accounting for the paper's "pushed KB" numbers.
        self.pushed_bytes = 0
        self.push_streams_opened = 0
        self.pushes_skipped_by_digest = 0
        self.requests_served = 0

    # ------------------------------------------------------------------
    def accept(self, tcp: TcpConnection) -> H2Connection:
        """Attach an H2 server endpoint to an incoming connection.

        The framing adapter follows the transport: H2-over-TCP for the
        paper's stack, the H3-flavored stream mapping for QUIC.
        """
        conn = h2_endpoint(
            tcp, "server", chunk_size=self.chunk_size, tracer=self.tracer
        )
        conn.on_request = lambda sid, headers, prio: self._on_request(conn, sid, headers)
        self.connections.append(conn)
        return conn

    def release(self) -> None:
        """Release every accepted connection; ``connections`` and the
        counters stay for post-run accounting."""
        for conn in self.connections:
            conn.release()

    def is_authoritative(self, url: str) -> bool:
        """RFC 7540 §8.2: may this server push ``url``?"""
        domain = split_url(url)[0]
        return self.certificate.covers(domain)

    # ------------------------------------------------------------------
    def _on_request(self, conn: H2Connection, stream_id: int, headers: List[Header]) -> None:
        url = _request_url(headers)
        record = self.matcher.match(url)
        digest = self._parse_cache_digest(headers)
        plan = None
        if (
            record is not None
            and record.rtype == _HTML
            and self.strategy is not None
        ):
            plan = self.strategy.plan(url, self.matcher._db, self.is_authoritative)
            if plan.early_hint_urls:
                # RFC 8297: the interim 103 leaves *before* the
                # response-generation delay — that head start over
                # final-response link headers is the whole mechanism.
                conn.respond_informational(
                    stream_id,
                    [(":status", "103")]
                    + [("link", f"<{u}>; rel=preload") for u in plan.early_hint_urls],
                )
                if self.tracer is not None:
                    self.tracer.emit(
                        EarlyHintsSent, conn._trace_name, stream_id, len(plan.early_hint_urls)
                    )
        if self.server_delay_ms > 0:
            self.sim.schedule(
                self.server_delay_ms,
                lambda: self._serve(conn, stream_id, record, digest, plan),
            )
        else:
            self._serve(conn, stream_id, record, digest, plan)

    @staticmethod
    def _parse_cache_digest(headers: List[Header]):
        """Decode a cache-digest request header, if the client sent one
        (draft-ietf-httpbis-cache-digest, the paper's §2.1 citation).

        A malformed header is served as "no digest"; anything but
        :class:`ProtocolError` is a model bug and propagates.
        """
        for name, value in headers:
            if name.lower() == "cache-digest":
                try:
                    return CacheDigest.from_header_value(value)
                except ProtocolError:
                    return None
        return None

    def _serve(
        self,
        conn: H2Connection,
        stream_id: int,
        record: Optional[ResponseRecord],
        digest: Optional[CacheDigest],
        plan: Optional[PushPlan],
    ) -> None:
        self.requests_served += 1
        if record is None:
            conn.respond(stream_id, [(":status", "404")], end_stream=True)
            return
        is_document = record.rtype == _HTML and self.strategy is not None
        response_headers = record.response_headers()
        if plan is not None and plan.hint_urls:
            # Server-aided discovery (MetaPush [20] / Vroom [32]): the
            # client learns what to fetch from link headers — including
            # resources beyond this server's push authority.
            response_headers += [
                ("link", f"<{hint}>; rel=preload") for hint in plan.hint_urls
            ]
        conn.respond(stream_id, response_headers)
        should_push = is_document and conn.remote_settings.enable_push
        promised: Dict[str, int] = {}
        if should_push:
            if digest is not None:
                skipped = [u for u in plan.urls if digest.contains(u)]
                self.pushes_skipped_by_digest += len(skipped)
                plan.urls = [u for u in plan.urls if u not in skipped]
                plan.critical_urls = [
                    u for u in plan.critical_urls if u not in skipped
                ]
            promised = self._promise_pushes(conn, stream_id, plan)
        # The parent body must be queued before any pushed body so the
        # priority tree (push = child of parent) governs DATA order.
        conn.send_body(stream_id, record.body, end_stream=True)
        if promised:
            self._send_pushed_bodies(conn, promised)

    # ------------------------------------------------------------------
    def _promise_pushes(
        self, conn: H2Connection, parent_id: int, plan: PushPlan
    ) -> Dict[str, int]:
        """Send PUSH_PROMISEs and install the interleaving scheduler."""
        if not plan.urls:
            return {}
        promised: Dict[str, int] = {}
        previous_push: Optional[int] = None
        for push_url in plan.urls:
            if not self.is_authoritative(push_url):
                continue
            record = self.matcher.match(push_url)
            if record is None:
                continue
            domain, path = split_url(push_url)
            request_headers = [
                (":method", "GET"),
                (":scheme", "https"),
                (":authority", domain),
                (":path", path),
            ]
            # The strategy's push order is enforced on the wire: pushed
            # streams form a sequential dependency chain below the
            # parent (the testbed "enables to specify push strategies",
            # §4.1 — order included), weighted by resource class.
            promised_id = conn.push(
                parent_id,
                request_headers,
                depends_on=previous_push if previous_push is not None else parent_id,
                weight=weight_for(record.rtype),
            )
            previous_push = promised_id
            promised[push_url] = promised_id
            self.push_streams_opened += 1
        if plan.interleaving:
            critical_ids = [
                promised[url] for url in plan.critical_urls if url in promised
            ]
            if critical_ids:
                scheduler = InterleavingScheduler(
                    parent_stream_id=parent_id,
                    offset=plan.interleave_offset,
                    critical_stream_ids=critical_ids,
                )
                conn.scheduler = scheduler
                scheduler.activate(conn)
        return promised

    def _send_pushed_bodies(self, conn: H2Connection, promised: Dict[str, int]) -> None:
        """Queue pushed response headers and bodies (after the parent's)."""
        for push_url, promised_id in promised.items():
            if conn.streams[promised_id].state >= StreamState.CLOSED:
                continue  # the client cancelled the push already
            record = self.matcher.match(push_url)
            conn.respond(promised_id, record.response_headers())
            conn.send_body(promised_id, record.body, end_stream=True)
            self.pushed_bytes += record.size


def _request_url(headers: List[Header]) -> str:
    pseudo = dict(headers)
    scheme = pseudo.get(":scheme", "https")
    authority = pseudo.get(":authority", "")
    path = pseudo.get(":path", "/")
    return f"{scheme}://{authority}{path}"


class ServerFarm:
    """All origin servers of a testbed run, keyed by IP."""

    def __init__(self):
        self._servers: Dict[str, ReplayServer] = {}

    def add(self, server: ReplayServer) -> None:
        self._servers[server.ip] = server

    def get(self, ip: str) -> ReplayServer:
        return self._servers[ip]

    def __contains__(self, ip: str) -> bool:
        return ip in self._servers

    def __iter__(self):
        return iter(self._servers.values())

    @property
    def total_pushed_bytes(self) -> int:
        # H1 servers have no push machinery at all.
        return sum(
            getattr(server, "pushed_bytes", 0) for server in self._servers.values()
        )
