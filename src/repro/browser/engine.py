"""The browser model: one page load over the simulated network.

The model implements the critical-rendering-path semantics the paper's
case-study analysis relies on:

* an **incremental tokenizer** doubles as the preload scanner — every
  resource reference is fetched the moment its bytes arrive, even while
  the DOM parser is blocked;
* the **DOM parser** lags behind: it charges main-thread time per byte
  and stops at synchronous scripts, which execute only once both the
  script bytes and the CSSOM (pending render-blocking stylesheets) are
  available;
* **render blocking**: first paint requires the ``<head>`` parsed and
  every in-head non-print stylesheet loaded *and* parsed.  Stylesheets
  referenced in the body (the critical-CSS trick) never block paint;
* **paints** happen per text block / image / font / script-revealed
  content, feeding the visual-progress curve that SpeedIndex
  integrates;
* **Server Push** handling: PUSH_PROMISEs for cached or already
  requested URLs are cancelled with RST_STREAM (often too late, as the
  paper notes); other pushed streams park until the parser or preload
  scanner claims them.

The servers say what they speak.  An H2 origin gets one connection,
with RFC 7540 §9.1.1 coalescing: a domain rides an existing connection
when it resolves to the same IP and the server's certificate covers it.
An HTTP/1.1 origin gets a pool of six serial connections
(:class:`~repro.h1.pool.H1OriginPool`), which has H2Connection's client
surface; every request and response takes the same path from there.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Union

from ..errors import BrowserError
from ..h2.cache_digest import CacheDigest
from ..h2.connection import H2Connection
from ..h2.constants import ErrorCode
from ..h2.frames import PriorityData
from ..h2.settings import Settings
from ..html.resources import FetchedResource, ResourceType, classify_url, split_url
from ..html.tokenizer import (
    DocumentEndToken,
    FontToken,
    HeadEndToken,
    HtmlTokenizer,
    ImageToken,
    PreloadToken,
    ScriptToken,
    StylesheetToken,
    TextToken,
    Token,
    scan_css,
    scan_exec_hint,
    scan_js,
)
from ..netsim.topology import Topology
from ..sim import Simulator
from ..span import Span, SpanBuffer
from ..trace.core import (
    CacheHit,
    EarlyHintsReceived,
    Milestone,
    Paint,
    PreloadDiscovered,
    PushAdopted,
    PushData,
    PushReceived,
    PushRejected,
    ResourceDiscovered,
    ResourceFinished,
    ResourceRequested,
    ResourceResponse,
)

if TYPE_CHECKING:  # typing-only imports; avoids a cycle through repro.replay
    from ..h1.pool import H1OriginPool
    from ..replay.certs import CertificateAuthority
    from ..server.h2server import ServerFarm
from .cache import BrowserCache
from .main_thread import MainThread
from .priorities import WEIGHT_ASYNC_JS, WEIGHT_IMAGE, WEIGHT_MAIN, weight_for
from .timings import PageTimeline, RequestTrace

# Module aliases for the resource classes the per-object (and, in
# ``_on_data``, per-DATA-frame) paths test: a module global loads in a
# quarter of the time of an enum attribute.
_HTML = ResourceType.HTML
_CSS = ResourceType.CSS
_JS = ResourceType.JS
_PAINTABLE = (ResourceType.IMAGE, ResourceType.FONT)


@dataclass
class BrowserConfig:
    """Tunables of the browser model."""

    #: Send SETTINGS_ENABLE_PUSH=0 when False (the paper's *no push*).
    enable_push: bool = True
    #: Main-thread HTML parsing throughput.
    parse_rate_bytes_per_ms: float = 5_000.0
    #: SETTINGS_INITIAL_WINDOW_SIZE advertised by the client
    #: (Chromium uses a multi-megabyte window).
    initial_window: int = 6 * 1024 * 1024
    #: Relative jitter applied to main-thread task durations (models
    #: client-side processing noise across repeated runs).
    cpu_jitter: float = 0.04
    #: Chromium's resource scheduler keeps only a bounded number of
    #: *delayable* (image / async-script / other low-priority) requests
    #: in flight so they cannot starve render-critical fetches.
    max_delayable_in_flight: int = 10
    #: Attach a cache digest (draft-ietf-httpbis-cache-digest) to the
    #: navigation request so the server can skip pushing cached objects.
    send_cache_digest: bool = False


class _Fetch:
    """One resource load (requested or pushed)."""

    __slots__ = (
        "url",
        "rtype",
        "stream_id",
        "conn_key",
        "body",
        "discovered_at",
        "requested_at",
        "response_start",
        "finished_at",
        "pushed",
        "adopted",
        "from_cache",
        "complete",
        "render_blocking",
        "cssom_ready",
        "parsed",
        "painted",
        "visual_weight",
        "above_fold",
        "exec_ms",
        "is_async",
        "is_defer",
        "token_offset",
        "executed",
        "weight",
    )

    def __init__(self, url: str, rtype: ResourceType):
        self.url = url
        self.rtype = rtype
        self.stream_id: Optional[int] = None
        self.conn_key: Optional[str] = None
        #: The body by reference: bytes are counted as they arrive and
        #: read only where content matters (HTML, CSS, JS).
        self.body = SpanBuffer()
        self.discovered_at = 0.0
        self.requested_at: Optional[float] = None
        self.response_start: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.pushed = False
        self.adopted = False
        self.from_cache = False
        self.complete = False
        self.render_blocking = False
        self.cssom_ready = False  # CSS: loaded AND parsed
        self.parsed = False       # the referencing element was DOM-parsed
        self.painted = False
        self.visual_weight = 0.0
        self.above_fold = True
        self.exec_ms = 0.0
        self.is_async = False
        self.is_defer = False
        self.token_offset = 0
        self.executed = False
        self.weight: Optional[int] = None


class _ConnectionEntry:
    """One origin's client (possibly still handshaking): an
    :class:`H2Connection`, shared by coalesced domains, or an
    :class:`H1OriginPool`."""

    __slots__ = (
        "ip",
        "domain",
        "conn",
        "established",
        "pending",
        "html_stream_id",
        "chain",
        "stream_fetch",
    )

    def __init__(self, ip: str, domain: str):
        self.ip = ip
        self.domain = domain
        self.conn: Optional[Union[H2Connection, "H1OriginPool"]] = None
        self.established = False
        self.pending: List[_Fetch] = []
        self.html_stream_id: Optional[int] = None
        #: (stream_id, weight, fetch) in creation order — the Chromium
        #: H2 dependency chain (see _parent_for).
        self.chain: List[tuple] = []
        #: stream id -> in-flight fetch on this connection.  Keyed by
        #: the bare int (the entry scopes the connection), so the
        #: per-DATA-frame lookup allocates no tuple key.
        self.stream_fetch: Dict[int, _Fetch] = {}


class PageLoad:
    """Drives one navigation to completion and records the timeline."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        servers: ServerFarm,
        ca: CertificateAuthority,
        main_url: str,
        config: Optional[BrowserConfig] = None,
        cache: Optional[BrowserCache] = None,
        rng=None,
        tracer=None,
    ):
        self.sim = sim
        self.topology = topology
        self.servers = servers
        self.ca = ca
        self.main_url = main_url
        self.config = config or BrowserConfig()
        #: Optional event tracer (``repro.trace``); all hooks are
        #: read-only so traced loads stay bit-identical.
        self._tracer = tracer
        # Note: an empty BrowserCache is falsy (it has __len__), so an
        # ``or`` default would silently discard a shared cache object.
        self.cache = cache if cache is not None else BrowserCache()
        self.timeline = PageTimeline()
        self.main_thread = MainThread(sim, rng=rng, jitter=self.config.cpu_jitter)
        self.main_thread.on_idle = self._check_onload

        self._fetches: Dict[str, _Fetch] = {}
        #: How many of ``_fetches`` are not complete yet.  A parked push
        #: (``_pushed_unclaimed``) is no fetch of the page's until it is
        #: adopted, so it is not counted.
        self._incomplete = 0
        self._pushed_unclaimed: Dict[str, _Fetch] = {}
        self._connections: Dict[str, _ConnectionEntry] = {}

        self._tokenizer = HtmlTokenizer()
        self._tokens: List[Token] = []
        #: </head> has been *scanned* (tokenizer), vs parsed below.
        self._head_seen_in_scan = False
        self._parser_index = 0
        self._parsed_offset = 0
        self._parser_task_running = False
        self._blocking_script: Optional[_Fetch] = None
        self._head_parsed = False
        self._parser_done = False
        self._html_complete = False
        self._render_started = False
        self._deferred_scripts: List[_Fetch] = []
        self._pending_paints: List[tuple] = []  # (weight, source)
        self._pending_inline: Optional[ScriptToken] = None
        self._onload_fired = False
        self._delayable_queue: Deque[_Fetch] = deque()
        self._delayable_in_flight = 0

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the navigation; run the simulator afterwards."""
        self.timeline.navigation_start = self.sim.now
        if self._tracer is not None:
            self._tracer.emit(Milestone, "navigation_start")
        main_domain = split_url(self.main_url)[0]
        # The navigation's own DNS lookup happens before connectEnd; the
        # paper's PLT starts at connectEnd, so pre-warm it.
        self.topology.prewarm_dns(main_domain)
        fetch = self._new_fetch(self.main_url, ResourceType.HTML, initiator="navigation")
        self.timeline.requests.append(
            RequestTrace(
                url=self.main_url,
                requested_at=self.sim.now,
                weight=WEIGHT_MAIN,
                pushed=False,
                initiator="navigation",
            )
        )
        if self._tracer is not None:
            self._tracer.emit(ResourceRequested, self.main_url, False)
        self._issue_request(fetch)

    @property
    def finished(self) -> bool:
        return self._onload_fired

    def release(self) -> None:
        """Cut the load's callback web once it is over: the main thread
        and every connection call back into this page, which holds
        them.  The timeline and the fetch records stay readable."""
        self.main_thread.release()
        for entry in self._connections.values():
            if entry.conn is not None:
                entry.conn.release()

    # ------------------------------------------------------------------
    # fetch machinery
    # ------------------------------------------------------------------
    def _new_fetch(self, url: str, rtype: ResourceType, initiator: str) -> _Fetch:
        fetch = _Fetch(url, rtype)
        fetch.discovered_at = self.sim.now
        self._fetches[url] = fetch
        self._incomplete += 1
        if self._tracer is not None:
            self._tracer.emit(ResourceDiscovered, url, rtype.name, initiator)
        return fetch

    def fetch(
        self,
        url: str,
        rtype: ResourceType,
        initiator: str,
        is_async: bool = False,
        initiator_url: Optional[str] = None,
        weight_override: Optional[int] = None,
    ) -> _Fetch:
        """Load a resource: cache, pushed stream, or network request."""
        existing = self._fetches.get(url)
        if existing is not None:
            return existing
        fetch = self._new_fetch(url, rtype, initiator)
        fetch.is_async = is_async
        fetch.weight = weight_override if weight_override is not None else weight_for(rtype, is_async)

        cached_body = self.cache.lookup(url)
        if cached_body is not None:
            fetch.from_cache = True
            fetch.requested_at = self.sim.now
            fetch.body.append(Span(cached_body))
            if self._tracer is not None:
                self._tracer.emit(CacheHit, url, len(cached_body))
                self._tracer.emit(ResourceRequested, url, False)
            self.sim.call_soon(lambda: self._complete_fetch(fetch))
            return fetch

        parked = self._pushed_unclaimed.pop(url, None)
        if parked is not None:
            self._adopt_push(fetch, parked)
            return fetch

        self.timeline.requests.append(
            RequestTrace(
                url=url,
                requested_at=self.sim.now,
                weight=fetch.weight,
                pushed=False,
                initiator=initiator,
                initiator_url=initiator_url,
            )
        )
        if self._tracer is not None:
            self._tracer.emit(ResourceRequested, url, False)
        if self._is_delayable(fetch):
            if self._delayable_in_flight >= self.config.max_delayable_in_flight:
                self._delayable_queue.append(fetch)
                return fetch
            self._delayable_in_flight += 1
        fetch.requested_at = self.sim.now
        self._issue_request(fetch)
        return fetch

    def _is_delayable(self, fetch: _Fetch) -> bool:
        """Chromium resource-scheduler classification: low-priority
        requests that may be held back while critical work is active."""
        weight = fetch.weight if fetch.weight is not None else weight_for(
            fetch.rtype, fetch.is_async
        )
        return weight <= WEIGHT_ASYNC_JS

    def _release_delayable(self, fetch: _Fetch) -> None:
        if not self._is_delayable(fetch) or fetch.pushed or fetch.from_cache:
            return
        self._delayable_in_flight = max(self._delayable_in_flight - 1, 0)
        while (
            self._delayable_queue
            and self._delayable_in_flight < self.config.max_delayable_in_flight
        ):
            queued = self._delayable_queue.popleft()
            self._delayable_in_flight += 1
            queued.requested_at = self.sim.now
            self._issue_request(queued)

    def _issue_request(self, fetch: _Fetch) -> None:
        domain = split_url(fetch.url)[0]
        entry = self._connection_for(domain)
        if not entry.established:
            entry.pending.append(fetch)
            return
        self._send_request(entry, fetch)

    def _connection_for(self, domain: str) -> _ConnectionEntry:
        ip = self.topology.resolve(domain)
        # Exact-origin reuse.
        entry = self._connections.get(domain)
        if entry is not None:
            return entry
        try:
            server = self.servers.get(ip)
        except KeyError:
            raise BrowserError(f"no replay server for IP {ip}") from None
        if server.protocol == "h1":
            # HTTP/1.1 neither multiplexes nor coalesces: the origin's
            # pool queues requests until it has an idle connection.
            # Imported here: ``repro.h1`` reaches back through the replay
            # server to this module.
            from ..h1.pool import H1OriginPool

            entry = _ConnectionEntry(ip, domain)
            self._connections[domain] = entry
            self._attach(
                entry,
                H1OriginPool(self.topology, domain, partial(self._on_h1_connected, server)),
            )
            return entry
        if server.protocol != "h2":
            raise BrowserError(f"cannot load from a {server.protocol!r} server")
        # RFC 7540 §9.1.1 coalescing onto an existing connection.
        for existing in self._connections.values():
            if self.ca.can_coalesce(existing.ip, domain, ip):
                self._connections[domain] = existing
                return existing
        entry = _ConnectionEntry(ip, domain)
        self._connections[domain] = entry
        self.topology.open_connection(domain, partial(self._on_connected, entry, server))
        return entry

    def _on_connected(self, entry: _ConnectionEntry, server, tcp) -> None:
        server.accept(tcp)
        settings = Settings(
            enable_push=1 if self.config.enable_push else 0,
            initial_window_size=self.config.initial_window,
        )
        # Imported here: ``mechanisms`` reaches back to this module.
        from ..mechanisms.h2quic import h2_endpoint

        self._attach(entry, h2_endpoint(tcp, "client", settings=settings, tracer=self._tracer))
        if self.timeline.connect_end is None:
            self._mark_connected()
        pending, entry.pending = entry.pending, []
        for fetch in pending:
            self._send_request(entry, fetch)

    def _on_h1_connected(self, server, tcp) -> None:
        """One more connection of an HTTP/1.1 origin's pool is up."""
        server.accept(tcp)
        self._mark_connected()

    def _attach(self, entry: _ConnectionEntry, conn) -> None:
        """Make ``conn`` the entry's client, its responses this page's."""
        conn.on_response = lambda sid, headers: self._on_response(entry, sid, headers)
        conn.on_informational = (
            lambda sid, headers: self._on_informational(entry, sid, headers)
        )
        # One call per DATA frame: a partial enters ``_on_data`` directly,
        # a lambda is a Python frame of its own in between.
        conn.on_data = partial(self._on_data, entry)
        conn.on_stream_end = partial(self._on_stream_end, entry)
        conn.on_push_promise = (
            lambda parent, promised, headers: self._on_push_promise(entry, promised, headers)
        )
        entry.conn = conn
        entry.established = True

    def _mark_connected(self) -> None:
        """The first connection of the load is up (later ones: no-op)."""
        if self.timeline.connect_end is None:
            self.timeline.connect_end = self.sim.now
            if self._tracer is not None:
                self._tracer.emit(Milestone, "connect_end")

    def _send_request(self, entry: _ConnectionEntry, fetch: _Fetch) -> None:
        domain, path = split_url(fetch.url)
        headers = [
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", domain),
            (":path", path),
            ("user-agent", "repro-browser/1.0 (Chromium 64 model)"),
            ("accept-encoding", "gzip, deflate"),
        ]
        if (
            fetch.rtype == _HTML
            and self.config.send_cache_digest
            and len(self.cache)
        ):
            digest = CacheDigest.from_urls(self.cache.urls())
            headers.append(("cache-digest", digest.to_header_value()))
        weight = fetch.weight if fetch.weight is not None else weight_for(
            fetch.rtype, fetch.is_async
        )
        depends_on = self._parent_for(entry, weight)
        priority = PriorityData(depends_on=depends_on, weight=weight)
        stream_id = entry.conn.request(headers, priority=priority)
        entry.chain.append((stream_id, weight, fetch))
        fetch.stream_id = stream_id
        fetch.conn_key = entry.domain
        if fetch.requested_at is None:
            fetch.requested_at = self.sim.now
        if fetch.rtype == _HTML and entry.html_stream_id is None:
            entry.html_stream_id = stream_id
        entry.stream_fetch[stream_id] = fetch

    def _parent_for(self, entry: _ConnectionEntry, weight: int) -> int:
        """Chromium's H2 dependency chain: a new stream depends on the
        most recently created, still-active stream of greater-or-equal
        priority.  The resulting tree serializes lower-priority streams
        behind critical ones — the server sends the entire HTML before
        the CSS, the CSS before scripts, scripts before images (§5)."""
        for stream_id, chain_weight, fetch in reversed(entry.chain):
            if chain_weight >= weight and not fetch.complete:
                return stream_id
        if entry.html_stream_id is not None and not self._html_complete:
            return entry.html_stream_id
        return 0

    # ------------------------------------------------------------------
    # connection events
    # ------------------------------------------------------------------
    def _on_response(self, entry: _ConnectionEntry, stream_id: int, headers) -> None:
        fetch = entry.stream_fetch.get(stream_id)
        if fetch is not None and fetch.response_start is None:
            fetch.response_start = self.sim.now
            if self._tracer is not None:
                self._tracer.emit(ResourceResponse, fetch.url)
        if fetch is not None and fetch.rtype == _HTML:
            for hint in _parse_link_preloads(headers):
                self._preload_hint(hint, "link_header")

    def _on_informational(
        self, entry: _ConnectionEntry, stream_id: int, headers
    ) -> None:
        """An interim response arrived (103 Early Hints, RFC 8297)."""
        status = next((value for name, value in headers if name == ":status"), "")
        if status != "103":
            return
        hints = _parse_link_preloads(headers)
        if self._tracer is not None:
            self._tracer.emit(EarlyHintsReceived, entry.conn._trace_name, stream_id, len(hints))
        for hint in hints:
            self._preload_hint(hint, "early_hints")

    def _preload_hint(self, url: str, source: str) -> None:
        """Fetch a preload-announced resource (link header / 103 hint)."""
        rtype = classify_url(url)
        if self._tracer is not None and url not in self._fetches:
            self._tracer.emit(PreloadDiscovered, url, rtype.name, source)
        # Link-header hints keep their historical initiator tag.
        initiator = "hint" if source == "link_header" else source
        self.fetch(url, rtype, initiator=initiator)

    def _on_data(self, entry: _ConnectionEntry, stream_id: int, data: Span) -> None:
        fetch = entry.stream_fetch.get(stream_id)
        if fetch is None:
            return
        fetch.body.append(data)
        if fetch.pushed:
            size = data.stop - data.start
            self.timeline.pushed_bytes += size
            if self._tracer is not None:
                self._tracer.emit(PushData, fetch.url, size, not fetch.adopted)
        if fetch.rtype == _HTML and fetch.url == self.main_url:
            self._on_html_bytes(data)

    def _on_stream_end(self, entry: _ConnectionEntry, stream_id: int) -> None:
        fetch = entry.stream_fetch.get(stream_id)
        if fetch is None:
            return
        if fetch.pushed and not fetch.adopted:
            fetch.complete = True  # parked; claimed later or wasted
            return
        self._complete_fetch(fetch)

    def _on_push_promise(self, entry: _ConnectionEntry, promised_id: int, headers) -> None:
        pseudo = dict(headers)
        url = f"{pseudo.get(':scheme', 'https')}://{pseudo.get(':authority', '')}{pseudo.get(':path', '/')}"
        self.timeline.pushes_received += 1
        if self._tracer is not None:
            self._tracer.emit(PushReceived, entry.conn._trace_name, promised_id, url)
        already_have = url in self.cache or url in self._fetches
        if already_have:
            # Cancel — though bytes may already be in flight (§2.1).
            if self._tracer is not None:
                reason = "cached" if url in self.cache else "already_requested"
                self._tracer.emit(PushRejected, entry.conn._trace_name, promised_id, url, reason)
            entry.conn.reset_stream(promised_id, ErrorCode.CANCEL)
            self.timeline.pushes_cancelled += 1
            return
        rtype = classify_url(url)
        fetch = _Fetch(url, rtype)
        fetch.pushed = True
        fetch.discovered_at = self.sim.now
        fetch.stream_id = promised_id
        fetch.conn_key = entry.domain
        entry.stream_fetch[promised_id] = fetch
        self._pushed_unclaimed[url] = fetch
        # Chromium (as of v64) does not reprioritize promised streams —
        # the server's plan-order chain governs pushed-stream priority —
        # but it *does* account for them when choosing dependencies for
        # subsequent requests, so a later image request chains behind a
        # promised stylesheet instead of competing with it.
        entry.chain.append((promised_id, weight_for(rtype), fetch))
        self.timeline.requests.append(
            RequestTrace(
                url=url,
                requested_at=self.sim.now,
                weight=WEIGHT_IMAGE,
                pushed=True,
                initiator="push",
            )
        )
        if self._tracer is not None:
            self._tracer.emit(ResourceRequested, url, True)

    def _adopt_push(self, fetch: _Fetch, parked: _Fetch) -> None:
        """A discovered resource matches an in-flight pushed stream."""
        parked.adopted = True
        fetch.pushed = True
        fetch.adopted = True
        fetch.stream_id = parked.stream_id
        fetch.conn_key = parked.conn_key
        fetch.requested_at = self.sim.now
        fetch.response_start = parked.response_start
        fetch.body = parked.body
        self.timeline.pushes_adopted += 1
        if self._tracer is not None:
            self._tracer.emit(PushAdopted, fetch.url, parked.stream_id)
        # Rebind the stream to the adopting fetch for future data: a
        # parked fetch is registered once, under its promised stream id
        # on the connection that carried the PUSH_PROMISE.
        self._connections[parked.conn_key].stream_fetch[parked.stream_id] = fetch
        if parked.complete:
            self.sim.call_soon(lambda: self._complete_fetch(fetch))

    # ------------------------------------------------------------------
    # resource completion pipeline
    # ------------------------------------------------------------------
    def _complete_fetch(self, fetch: _Fetch) -> None:
        if fetch.complete and fetch.finished_at is not None:
            return
        self._incomplete -= 1
        fetch.complete = True
        fetch.finished_at = self.sim.now
        if self._tracer is not None:
            self._tracer.emit(
                ResourceFinished, fetch.url, len(fetch.body), fetch.pushed, fetch.from_cache
            )
        if not fetch.from_cache:
            self.cache.store(fetch.url, fetch.body.tobytes())
        self._record_resource(fetch)
        self._release_delayable(fetch)

        rtype = fetch.rtype
        if rtype == _CSS:
            self._on_css_loaded(fetch)
        elif rtype == _JS:
            self._on_js_loaded(fetch)
        elif rtype in _PAINTABLE:
            self._maybe_paint_resource(fetch)
        elif rtype == _HTML and fetch.url == self.main_url:
            self._html_complete = True
            if fetch.from_cache:
                self._on_html_bytes(fetch.body.tobytes())
            self._advance_parser()
        self._check_onload()

    def _record_resource(self, fetch: _Fetch) -> None:
        self.timeline.resources[fetch.url] = FetchedResource(
            url=fetch.url,
            rtype=fetch.rtype,
            size=len(fetch.body),
            discovered_at=fetch.discovered_at,
            requested_at=fetch.requested_at,
            response_start=fetch.response_start,
            finished_at=fetch.finished_at,
            pushed=fetch.pushed,
            from_cache=fetch.from_cache,
        )

    # ------------------------------------------------------------------
    # HTML tokenization (preload scanning) and discovery
    # ------------------------------------------------------------------
    def _on_html_bytes(self, data: Union[bytes, Span]) -> None:
        """``data``: the next ``bytes`` of the document, or the next span
        of it (then the tokenizer reads the document's token table)."""
        for token in self._tokenizer.feed(data):
            self._tokens.append(token)
            self._discover(token)
        self._advance_parser()

    def _discover(self, token: Token) -> None:
        """Preload scanner: fetch references the moment they are seen."""
        if isinstance(token, HeadEndToken):
            self._head_seen_in_scan = True
        elif isinstance(token, StylesheetToken) and token.url:
            # Only stylesheets referenced inside <head> block the first
            # paint; the critical-CSS deployment moves the rest to the
            # end of <body> precisely to escape this.  Non-blocking CSS
            # is also *fetched* at low priority (Chromium behaviour).
            blocking = not token.media_print and not self._head_seen_in_scan
            fetch = self.fetch(
                token.url,
                ResourceType.CSS,
                initiator="preload",
                weight_override=None if blocking else WEIGHT_ASYNC_JS,
            )
            fetch.exec_ms = max(fetch.exec_ms, token.exec_ms)
            fetch.token_offset = token.offset
            if blocking:
                fetch.render_blocking = True
        elif isinstance(token, ScriptToken) and token.url:
            fetch = self.fetch(
                token.url,
                ResourceType.JS,
                initiator="preload",
                is_async=token.is_async or token.is_defer,
            )
            fetch.exec_ms = max(fetch.exec_ms, token.exec_ms)
            fetch.visual_weight = max(fetch.visual_weight, token.visual_weight)
            fetch.is_defer = token.is_defer
            fetch.token_offset = token.offset
        elif isinstance(token, ImageToken) and token.url:
            fetch = self.fetch(token.url, ResourceType.IMAGE, initiator="preload")
            fetch.visual_weight = max(fetch.visual_weight, token.visual_weight)
            fetch.above_fold = token.above_fold
            fetch.token_offset = token.offset
        elif isinstance(token, FontToken) and token.url:
            fetch = self.fetch(token.url, ResourceType.FONT, initiator="preload")
            fetch.visual_weight = max(fetch.visual_weight, token.visual_weight)
            fetch.above_fold = token.above_fold
            fetch.parsed = True  # fonts need no DOM element to apply
        elif isinstance(token, PreloadToken) and token.url:
            rtype = _PRELOAD_AS_TYPES.get(token.as_type) or classify_url(token.url)
            if self._tracer is not None and token.url not in self._fetches:
                self._tracer.emit(PreloadDiscovered, token.url, rtype.name, "link_tag")
            fetch = self.fetch(token.url, rtype, initiator="preload_tag")
            if fetch.rtype == ResourceType.CSS and fetch.token_offset == 0:
                # A preload is a fetch hint only: until the real
                # <link rel=stylesheet> is parsed (which overwrites the
                # offset), the stylesheet must not register a CSSOM
                # dependency for scripts that follow the announcement.
                fetch.token_offset = _NO_CSSOM_OFFSET

    # ------------------------------------------------------------------
    # DOM parser
    # ------------------------------------------------------------------
    def _advance_parser(self) -> None:
        if (
            self._parser_task_running
            or self._parser_done
            or self._blocking_script is not None
        ):
            return
        if self._parser_index >= len(self._tokens):
            return
        token = self._tokens[self._parser_index]
        span = max(token.offset - self._parsed_offset, 0)
        cost = span / self.config.parse_rate_bytes_per_ms
        self._parser_task_running = True
        self.main_thread.submit(cost, lambda: self._finish_token(token), label="parse")

    def _finish_token(self, token: Token) -> None:
        self._parser_task_running = False
        self._parser_index += 1
        self._parsed_offset = token.offset
        self._process_token(token)
        self._advance_parser()

    def _process_token(self, token: Token) -> None:
        if isinstance(token, TextToken):
            self._queue_paint(token.visual_weight, "text")
        elif isinstance(token, HeadEndToken):
            self._head_parsed = True
            self._maybe_start_render()
        elif isinstance(token, StylesheetToken):
            pass  # handled at discovery / completion
        elif isinstance(token, ImageToken) and token.url:
            fetch = self._fetches.get(token.url)
            if fetch is not None:
                fetch.parsed = True
                self._maybe_paint_resource(fetch)
        elif isinstance(token, FontToken):
            pass
        elif isinstance(token, ScriptToken):
            self._process_script_token(token)
        elif isinstance(token, DocumentEndToken):
            self._finish_parsing()

    def _process_script_token(self, token: ScriptToken) -> None:
        if token.url is None:
            # Inline script: executes once preceding CSSOM is ready.
            self._run_inline_script(token)
            return
        fetch = self._fetches.get(token.url)
        if fetch is None:
            return
        fetch.parsed = True
        if fetch.is_defer:
            self._deferred_scripts.append(fetch)
            return
        if fetch.is_async:
            if fetch.complete and not fetch.executed:
                self._execute_script(fetch)
            return
        # Synchronous script: blocks the parser.
        self._blocking_script = fetch
        self._try_run_blocking_script()

    def _run_inline_script(self, token: ScriptToken) -> None:
        if not self._cssom_ready_for(token.offset):
            self._blocking_script = _INLINE_SENTINEL
            self._pending_inline = token
            return
        self._execute_inline(token)

    def _execute_inline(self, token: ScriptToken) -> None:
        def done() -> None:
            for url in scan_js(token.content):
                self.fetch(url, classify_url(url), initiator="js", initiator_url=self.main_url)
            if token.visual_weight > 0:
                self._queue_paint(token.visual_weight, "inline-script")
            self._advance_parser()
            self._check_onload()

        if token.exec_ms > 0:
            self.main_thread.submit(token.exec_ms, done, label="inline-js")
        else:
            done()

    def _try_run_blocking_script(self) -> None:
        fetch = self._blocking_script
        if fetch is None:
            return
        if fetch is _INLINE_SENTINEL:
            token = self._pending_inline
            if self._cssom_ready_for(token.offset):
                self._blocking_script = None
                self._execute_inline(token)
            return
        if not fetch.complete:
            return
        if not self._cssom_ready_for(fetch.token_offset):
            return
        self._blocking_script = None
        self._execute_script(fetch, resume_parser=True)

    def _execute_script(self, fetch: _Fetch, resume_parser: bool = False) -> None:
        fetch.executed = True
        source = fetch.body.tobytes().decode("utf-8", errors="replace")

        def done() -> None:
            for url in scan_js(source):
                self.fetch(url, classify_url(url), initiator="js", initiator_url=fetch.url)
            if fetch.visual_weight > 0:
                self._queue_paint(fetch.visual_weight, fetch.url)
            if resume_parser:
                self._advance_parser()
            self._check_onload()

        self.main_thread.submit(max(fetch.exec_ms, 0.0), done, label="js")

    def _finish_parsing(self) -> None:
        self._parser_done = True
        self.timeline.dom_content_loaded = self.sim.now
        if self._tracer is not None:
            self._tracer.emit(Milestone, "dom_content_loaded")
        for fetch in self._deferred_scripts:
            if fetch.complete and not fetch.executed:
                self._execute_script(fetch)
        self._maybe_start_render()
        self._check_onload()

    # ------------------------------------------------------------------
    # CSS pipeline
    # ------------------------------------------------------------------
    def _on_css_loaded(self, fetch: _Fetch) -> None:
        source = fetch.body.tobytes().decode("utf-8", errors="replace")
        parse_cost = max(fetch.exec_ms, scan_exec_hint(source))

        def parsed() -> None:
            fetch.cssom_ready = True
            for url in scan_css(source):
                child = self.fetch(url, classify_url(url), initiator="css", initiator_url=fetch.url)
                child.parsed = True  # applied by stylesheet, no DOM element
                weight = _css_child_weight(source, url)
                child.visual_weight = max(child.visual_weight, weight)
                self._maybe_paint_resource(child)
            self._maybe_start_render()
            self._try_run_blocking_script()
            self._check_onload()

        self.main_thread.submit(parse_cost, parsed, label="css-parse")

    def _on_js_loaded(self, fetch: _Fetch) -> None:
        if fetch is self._blocking_script:
            self._try_run_blocking_script()
        elif fetch.is_async and not fetch.is_defer and not fetch.executed:
            # Async scripts run as soon as they arrive.
            self._execute_script(fetch)
        elif fetch.is_defer and self._parser_done and not fetch.executed:
            self._execute_script(fetch)

    def _cssom_ready_for(self, offset: int) -> bool:
        """All non-print stylesheets referenced before ``offset`` ready."""
        for fetch in self._fetches.values():
            if fetch.rtype != _CSS:
                continue
            if fetch.token_offset and fetch.token_offset > offset:
                continue
            if fetch.render_blocking or fetch.token_offset <= offset:
                if not fetch.cssom_ready:
                    return False
        return True

    def _render_blocking_ready(self) -> bool:
        return all(
            fetch.cssom_ready
            for fetch in self._fetches.values()
            if fetch.render_blocking
        )

    # ------------------------------------------------------------------
    # paint pipeline
    # ------------------------------------------------------------------
    def _maybe_start_render(self) -> None:
        if self._render_started:
            return
        if not (self._head_parsed or self._parser_done):
            return
        if not self._render_blocking_ready():
            return
        self._render_started = True
        pending, self._pending_paints = self._pending_paints, []
        for weight, source in pending:
            self._record_paint(weight, source)
        for fetch in self._fetches.values():
            self._maybe_paint_resource(fetch)

    def _queue_paint(self, weight: float, source: str) -> None:
        if weight <= 0:
            return
        if self._render_started:
            self._record_paint(weight, source)
        else:
            self._pending_paints.append((weight, source))
            self._maybe_start_render()

    def _maybe_paint_resource(self, fetch: _Fetch) -> None:
        if fetch.painted or fetch.visual_weight <= 0 or not fetch.above_fold:
            return
        if fetch.rtype not in _PAINTABLE:
            return
        if not (fetch.complete and fetch.parsed and self._render_started):
            return
        fetch.painted = True
        self._record_paint(fetch.visual_weight, fetch.url)

    def _record_paint(self, weight: float, source: str) -> None:
        """Record a paint, emitting trace events alongside (paint +
        first_paint milestone on the first one)."""
        if self._tracer is not None:
            if self.timeline.first_paint is None:
                self._tracer.emit(Milestone, "first_paint")
            self._tracer.emit(Paint, weight, source)
        self.timeline.record_paint(self.sim.now, weight, source)

    # ------------------------------------------------------------------
    # load completion
    # ------------------------------------------------------------------
    def _check_onload(self) -> None:
        if self._onload_fired or not self._parser_done:
            return
        if self._incomplete:
            return
        for fetch in self._deferred_scripts:
            if not fetch.executed:
                return
        if not self.main_thread.idle:
            # The main thread re-invokes this check when it drains.
            return
        self._onload_fired = True
        self.timeline.onload = self.sim.now
        if self._tracer is not None:
            self._tracer.emit(Milestone, "onload")
        # Late render start for pages with no paintable content yet.
        self._maybe_start_render()


def _parse_link_preloads(headers) -> List[str]:
    """Extract ``link: <url>; rel=preload`` hints from response headers."""
    hints: List[str] = []
    for name, value in headers:
        if name.lower() != "link" or "rel=preload" not in value:
            continue
        start = value.find("<")
        end = value.find(">", start + 1)
        if start != -1 and end != -1:
            hints.append(value[start + 1 : end])
    return hints


#: Sentinel marking the parser as blocked on an inline script.
_INLINE_SENTINEL = _Fetch("inline:", ResourceType.JS)

#: Token offset meaning "no CSSOM dependency yet" for preload-initiated
#: stylesheet fetches (larger than any real document offset).
_NO_CSSOM_OFFSET = 1 << 30

#: ``as`` destination -> resource class for generic preload tokens.
_PRELOAD_AS_TYPES = {
    "style": ResourceType.CSS,
    "script": ResourceType.JS,
    "image": ResourceType.IMAGE,
    "fetch": ResourceType.OTHER,
}


def _css_child_weight(source: str, url: str) -> float:
    """Read the ``/*vw:N*/`` annotation following a CSS reference."""
    import re

    pattern = re.escape(url) + r"\);\s*/\*vw:([0-9.]+)\*/"
    match = re.search(pattern, source)
    return float(match.group(1)) if match else 0.0
