"""Deterministic wire/event tracing for the replay testbed.

The paper explained its push verdicts "based on inspection of the
rendering process" (§4.3, §5); this package gives the reproduction the
same observability in the structured spirit of IETF qlog.  A
:class:`Tracer` threaded through the stack records typed events —
stream lifecycle, frames on the wire, push promise/accept/reject,
cwnd/RTO evolution, impairment drops, cache hits, paint and onload
milestones — all stamped with **simulated** time, never wall-clock, so
tracing cannot perturb any experiment output.

Each event is defined once, as a dataclass in :mod:`repro.trace.core`;
hook sites build it with ``tracer.emit(EventClass, *payload)``, so an
event's hook sites are greppable by its class name.  Tracing is off
when the tracer is ``None``: instrumented objects hold a ``tracer``
attribute that defaults to ``None`` and hot paths pay exactly one
attribute check.  Readers share :func:`load_view`.
"""

from .core import (
    CacheHit,
    CwndSample,
    EarlyHintsReceived,
    EarlyHintsSent,
    FrameReceived,
    FrameSent,
    Milestone,
    PacketDropped,
    PacketReordered,
    Paint,
    PreloadDiscovered,
    PushAdopted,
    PushData,
    PushPromised,
    PushReceived,
    PushRejected,
    QuicStreamRecovered,
    ResourceDiscovered,
    ResourceFinished,
    ResourceRequested,
    ResourceResponse,
    Retransmit,
    StreamClosed,
    StreamOpened,
    StreamReset,
    Trace,
    TraceEvent,
    Tracer,
)
from .diff import TraceDiff, diff_traces, render_diff
from .qlog import parse_qlog_events, qlog_json, to_qlog
from .store import TraceSpec, TraceStore
from .view import load_view

__all__ = [
    "CacheHit",
    "CwndSample",
    "EarlyHintsReceived",
    "EarlyHintsSent",
    "FrameReceived",
    "FrameSent",
    "Milestone",
    "PacketDropped",
    "PacketReordered",
    "Paint",
    "PreloadDiscovered",
    "PushAdopted",
    "PushData",
    "PushPromised",
    "PushReceived",
    "PushRejected",
    "QuicStreamRecovered",
    "ResourceDiscovered",
    "ResourceFinished",
    "ResourceRequested",
    "ResourceResponse",
    "Retransmit",
    "StreamClosed",
    "StreamOpened",
    "StreamReset",
    "Trace",
    "TraceDiff",
    "TraceEvent",
    "TraceSpec",
    "TraceStore",
    "Tracer",
    "diff_traces",
    "load_view",
    "parse_qlog_events",
    "qlog_json",
    "render_diff",
    "to_qlog",
]
