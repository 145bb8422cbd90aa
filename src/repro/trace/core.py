"""The tracer and its event taxonomy.

Design contract (mirrors DESIGN §10):

* **Determinism.**  Every event is stamped from ``Simulator.now`` — the
  tracer is attached to the simulator at the start of a run and never
  reads wall-clock time.  All instrumentation hooks are read-only:
  they never touch an RNG, never schedule events, and never mutate
  model state, so a traced run is bit-identical to an untraced one.

* **Off is ``None``.**  Instrumented objects carry a tracer attribute
  that is a :class:`Tracer` or ``None``; the hot-path cost with tracing
  off is one attribute load and one ``is None`` comparison.

* **Typed events.**  Each event is a small dataclass with a ``t``
  field (simulated milliseconds) first; the remaining fields are the
  event payload.  ``qlog_name`` gives the qlog-style category:name.
  The dataclass is the only place an event's schema is written: hook
  sites build it through :meth:`Tracer.emit`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, List, Optional, Type


# ----------------------------------------------------------------------
# Event taxonomy


@dataclass
class TraceEvent:
    """Base class: ``t`` is simulated time in milliseconds."""

    qlog_name: ClassVar[str] = "trace:event"

    t: float

    def data(self) -> Dict[str, Any]:
        """Payload fields (everything but the timestamp)."""
        return {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "t"
        }


# -- HTTP/2 stream lifecycle -------------------------------------------


@dataclass
class StreamOpened(TraceEvent):
    qlog_name: ClassVar[str] = "h2:stream_opened"
    conn: str
    stream_id: int
    pushed: bool


@dataclass
class StreamClosed(TraceEvent):
    qlog_name: ClassVar[str] = "h2:stream_closed"
    conn: str
    stream_id: int


@dataclass
class StreamReset(TraceEvent):
    qlog_name: ClassVar[str] = "h2:stream_reset"
    conn: str
    stream_id: int
    code: str


# -- Frames on the wire ------------------------------------------------


@dataclass
class FrameSent(TraceEvent):
    qlog_name: ClassVar[str] = "h2:frame_sent"
    conn: str
    frame_type: str
    stream_id: int
    size: int


@dataclass
class FrameReceived(TraceEvent):
    qlog_name: ClassVar[str] = "h2:frame_received"
    conn: str
    frame_type: str
    stream_id: int
    size: int


# -- Server push lifecycle ---------------------------------------------


@dataclass
class PushPromised(TraceEvent):
    """Server sent a PUSH_PROMISE reserving ``promised_stream_id``."""

    qlog_name: ClassVar[str] = "push:promised"
    conn: str
    parent_stream_id: int
    promised_stream_id: int


@dataclass
class PushReceived(TraceEvent):
    """Client decoded a PUSH_PROMISE for ``url``."""

    qlog_name: ClassVar[str] = "push:received"
    conn: str
    promised_stream_id: int
    url: str


@dataclass
class PushRejected(TraceEvent):
    """Client cancelled a push (RST_STREAM) instead of accepting it."""

    qlog_name: ClassVar[str] = "push:rejected"
    conn: str
    promised_stream_id: int
    url: str
    reason: str


@dataclass
class PushAdopted(TraceEvent):
    """The parser demanded a resource the server had already pushed."""

    qlog_name: ClassVar[str] = "push:adopted"
    url: str
    stream_id: int


@dataclass
class PushData(TraceEvent):
    """Pushed DATA arrived; ``before_demand`` marks speculative bytes
    received before the parser asked for the resource (the paper's
    wasted-push accounting)."""

    qlog_name: ClassVar[str] = "push:data"
    url: str
    size: int
    before_demand: bool


# -- TCP / congestion control ------------------------------------------


@dataclass
class CwndSample(TraceEvent):
    """Congestion window evolution, sampled after every cc decision."""

    qlog_name: ClassVar[str] = "tcp:cwnd"
    conn: str
    trigger: str
    cwnd: float
    ssthresh: float
    rto_ms: float
    in_flight: int


@dataclass
class Retransmit(TraceEvent):
    qlog_name: ClassVar[str] = "tcp:retransmit"
    conn: str
    seq: int
    kind: str


# -- Link impairments --------------------------------------------------


@dataclass
class PacketDropped(TraceEvent):
    qlog_name: ClassVar[str] = "net:packet_dropped"
    link: str
    packet_index: int


@dataclass
class PacketReordered(TraceEvent):
    qlog_name: ClassVar[str] = "net:packet_reordered"
    link: str
    packet_index: int
    extra_delay_ms: float


# -- Browser-side resource lifecycle -----------------------------------


@dataclass
class CacheHit(TraceEvent):
    qlog_name: ClassVar[str] = "browser:cache_hit"
    url: str
    size: int


@dataclass
class ResourceDiscovered(TraceEvent):
    qlog_name: ClassVar[str] = "browser:resource_discovered"
    url: str
    rtype: str
    initiator: str


@dataclass
class ResourceRequested(TraceEvent):
    qlog_name: ClassVar[str] = "browser:resource_requested"
    url: str
    pushed: bool


@dataclass
class ResourceResponse(TraceEvent):
    qlog_name: ClassVar[str] = "browser:response_start"
    url: str


@dataclass
class ResourceFinished(TraceEvent):
    qlog_name: ClassVar[str] = "browser:resource_finished"
    url: str
    size: int
    pushed: bool
    from_cache: bool


@dataclass
class Milestone(TraceEvent):
    """Page-level milestone: navigation_start, connect_end, first_paint,
    dom_content_loaded, onload."""

    qlog_name: ClassVar[str] = "browser:milestone"
    milestone: str


@dataclass
class Paint(TraceEvent):
    qlog_name: ClassVar[str] = "browser:paint"
    weight: float
    source: str


# -- Push successors (preload / 103 Early Hints / QUIC) -----------------


@dataclass
class EarlyHintsSent(TraceEvent):
    """Server emitted an interim 103 response carrying preload hints."""

    qlog_name: ClassVar[str] = "hints:early_hints_sent"
    conn: str
    stream_id: int
    url_count: int


@dataclass
class EarlyHintsReceived(TraceEvent):
    """Client decoded an interim 103 response before the final one."""

    qlog_name: ClassVar[str] = "hints:early_hints_received"
    conn: str
    stream_id: int
    url_count: int


@dataclass
class PreloadDiscovered(TraceEvent):
    """A preload hint entered the fetch pipeline.  ``source`` is one of
    ``link_tag`` (markup), ``link_header`` (final-response Link
    header), or ``early_hints`` (interim 103)."""

    qlog_name: ClassVar[str] = "hints:preload_discovered"
    url: str
    rtype: str
    source: str


@dataclass
class QuicStreamRecovered(TraceEvent):
    """A retransmission filled a loss gap on one QUIC stream while
    other streams kept delivering — the HoL-blocking contrast with
    TCP, where the gap would have stalled every stream."""

    qlog_name: ClassVar[str] = "quic:stream_recovered"
    conn: str
    stream_id: int
    recovered_bytes: int


#: qlog name -> event class, for every event class defined above.
EVENT_BY_NAME: Dict[str, type] = {
    cls.qlog_name: cls for cls in TraceEvent.__subclasses__()
}


# ----------------------------------------------------------------------
# The tracer itself


@dataclass
class Trace:
    """A finished trace: run metadata plus the ordered event list."""

    meta: Dict[str, Any]
    events: List[TraceEvent]


class Tracer:
    """Collects typed events stamped with simulated time.

    One tracer covers one page load (one :meth:`ReplayTestbed.run`).
    The testbed calls :meth:`attach` with the run's simulator before
    the load starts.  Hook sites call :meth:`emit` with an event class
    and its payload, so an event's schema is written once, in its
    dataclass, and its hook sites are greppable by the class name.
    """

    def __init__(self, meta: Optional[Dict[str, Any]] = None):
        self.meta: Dict[str, Any] = dict(meta or {})
        self._events: List[TraceEvent] = []
        self._sim = None

    def attach(self, sim) -> None:
        self._sim = sim

    @property
    def now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    def emit(self, event_cls: Type[TraceEvent], *payload: Any) -> None:
        """Append ``event_cls(now, *payload)``; hot paths call this
        behind their ``tracer is not None`` guard."""
        self._events.append(event_cls(self.now, *payload))

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def trace(self) -> Trace:
        return Trace(meta=dict(self.meta), events=list(self._events))
