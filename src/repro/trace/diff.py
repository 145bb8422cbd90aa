"""Trace alignment and strategy diagnosis.

:func:`diff_traces` aligns two traces of the **same site** loaded under
different push strategies and answers the question the paper answered
by eyeballing waterfalls (§4.3, §5): *where* did the two loads diverge,
and what did that cost per resource?

The diagnosis has three parts:

* the first divergent event — structural (different event sequence,
  e.g. the first PUSH_PROMISE) or, when both runs have the same wire
  structure, the first timing divergence;
* a per-resource delta table (request/finish times under A vs B);
* push accounting: bytes pushed before the parser demanded the
  resource (speculative, possibly wasted) and pushes rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .core import Trace, TraceEvent
from .view import LoadView, ResourceRow, load_view

_MILESTONES = (
    "navigation_start",
    "connect_end",
    "first_paint",
    "dom_content_loaded",
    "onload",
)


@dataclass
class Divergence:
    """First point where the two traces stop agreeing."""

    index: int
    kind: str  # "structural" | "timing" | "length"
    a: Optional[str]
    b: Optional[str]


@dataclass
class ResourceDelta:
    """One resource under both strategies (a blank row where absent)."""

    url: str
    a: ResourceRow
    b: ResourceRow
    notes: List[str] = field(default_factory=list)

    @property
    def delta_finished(self) -> Optional[float]:
        if self.a.finished_at is None or self.b.finished_at is None:
            return None
        return self.a.finished_at - self.b.finished_at


@dataclass
class TraceDiff:
    site: str
    strategy_a: str
    strategy_b: str
    milestones: List[Tuple[str, Optional[float], Optional[float]]]
    divergence: Optional[Divergence]
    resources: List[ResourceDelta]
    push_bytes_before_demand_a: int
    push_bytes_before_demand_b: int
    pushes_rejected_a: int
    pushes_rejected_b: int
    events_a: int
    events_b: int


def describe_event(event: TraceEvent) -> str:
    """One-line human rendering of an event (stable field order)."""
    payload = " ".join(f"{name}={value}" for name, value in event.data().items())
    return f"{event.qlog_name} {payload} (t={event.t:.3f}ms)".rstrip()


# ----------------------------------------------------------------------


def _first_divergence(a: Trace, b: Trace) -> Optional[Divergence]:
    """Structural before length before timing, whichever comes first."""
    common = min(len(a.events), len(b.events))
    timing = None
    for index in range(common):
        ea, eb = a.events[index], b.events[index]
        if type(ea) is not type(eb) or ea.data() != eb.data():
            return Divergence(
                index, "structural", describe_event(ea), describe_event(eb)
            )
        if timing is None and abs(ea.t - eb.t) > 1e-9:
            timing = Divergence(index, "timing", describe_event(ea), describe_event(eb))
    if len(a.events) != len(b.events):
        rest_a = describe_event(a.events[common]) if len(a.events) > common else None
        rest_b = describe_event(b.events[common]) if len(b.events) > common else None
        return Divergence(common, "length", rest_a, rest_b)
    return timing


def _split_rows(view: LoadView) -> Tuple[Dict[str, ResourceRow], Dict[str, str]]:
    """url -> resource row, and url -> reason of every refused push."""
    resources = {r.url: r for r in view.rows if r.reject_reason is None}
    rejected = {
        r.url: r.reject_reason for r in view.rows if r.reject_reason is not None
    }
    return resources, rejected


def _first_request(delta: ResourceDelta) -> Tuple[float, str]:
    times = [t for t in (delta.a.requested_at, delta.b.requested_at) if t is not None]
    return (min(times, default=float("inf")), delta.url)


def diff_traces(a: Trace, b: Trace) -> TraceDiff:
    """Align two traces of the same site under different strategies."""
    view_a, view_b = load_view(a), load_view(b)
    times_a, times_b = view_a.milestones, view_b.milestones
    milestones = [
        (name, times_a.get(name), times_b.get(name))
        for name in _MILESTONES
        if name in times_a or name in times_b
    ]
    res_a, rejected_a = _split_rows(view_a)
    res_b, rejected_b = _split_rows(view_b)

    resources: List[ResourceDelta] = []
    # Rejected-only URLs (a push refused before any request) still get a
    # row — a refused promise is exactly the waste worth diagnosing.
    seen_a = set(res_a) | set(rejected_a)
    seen_b = set(res_b) | set(rejected_b)
    for url in seen_a | seen_b:
        delta = ResourceDelta(
            url=url,
            a=res_a.get(url) or ResourceRow(url),
            b=res_b.get(url) or ResourceRow(url),
        )
        if url not in seen_b:
            delta.notes.append("only under A")
        if url not in seen_a:
            delta.notes.append("only under B")
        if url in rejected_a:
            delta.notes.append(f"push rejected under A ({rejected_a[url]})")
        if url in rejected_b:
            delta.notes.append(f"push rejected under B ({rejected_b[url]})")
        resources.append(delta)
    resources.sort(key=_first_request)

    return TraceDiff(
        site=str(a.meta.get("site", b.meta.get("site", ""))),
        strategy_a=str(a.meta.get("strategy", "A")),
        strategy_b=str(b.meta.get("strategy", "B")),
        milestones=milestones,
        divergence=_first_divergence(a, b),
        resources=resources,
        push_bytes_before_demand_a=view_a.push_bytes_before_demand,
        push_bytes_before_demand_b=view_b.push_bytes_before_demand,
        pushes_rejected_a=len(rejected_a),
        pushes_rejected_b=len(rejected_b),
        events_a=len(a.events),
        events_b=len(b.events),
    )


# ----------------------------------------------------------------------


def _fmt_ms(value: Optional[float]) -> str:
    return f"{value:9.1f}" if value is not None else "        —"


def render_diff(diff: TraceDiff, max_resources: int = 40) -> str:
    """Human-readable diagnosis of a :class:`TraceDiff`."""
    lines: List[str] = []
    lines.append(
        f"trace diff: {diff.site or '(site)'} — "
        f"A={diff.strategy_a} vs B={diff.strategy_b} "
        f"({diff.events_a} vs {diff.events_b} events)"
    )
    if diff.milestones:
        lines.append("milestones (ms):")
        for name, ta, tb in diff.milestones:
            delta = (
                f"  Δ {ta - tb:+9.1f}" if ta is not None and tb is not None else ""
            )
            lines.append(
                f"  {name:<20} A {_fmt_ms(ta)}   B {_fmt_ms(tb)}{delta}"
            )
    if diff.divergence is None:
        lines.append("traces are identical (no divergent event)")
    else:
        div = diff.divergence
        lines.append(f"first divergence: event #{div.index} ({div.kind})")
        lines.append(f"  A: {div.a if div.a is not None else '(no further events)'}")
        lines.append(f"  B: {div.b if div.b is not None else '(no further events)'}")
    lines.append(
        "push bytes before demand: "
        f"A {diff.push_bytes_before_demand_a}   B {diff.push_bytes_before_demand_b}"
    )
    if diff.pushes_rejected_a or diff.pushes_rejected_b:
        lines.append(
            f"pushes rejected: A {diff.pushes_rejected_a}   B {diff.pushes_rejected_b}"
        )
    if diff.resources:
        lines.append("per-resource finish times (ms):")
        lines.append(f"  {'resource':<44} {'A-finish':>9} {'B-finish':>9} {'Δ':>9}")
        for delta in diff.resources[:max_resources]:
            label = delta.url if len(delta.url) <= 44 else "…" + delta.url[-43:]
            d = delta.delta_finished
            flags = []
            if delta.a.pushed:
                flags.append("A:push")
            if delta.b.pushed:
                flags.append("B:push")
            flags.extend(delta.notes)
            suffix = ("  " + "; ".join(flags)) if flags else ""
            lines.append(
                f"  {label:<44} {_fmt_ms(delta.a.finished_at)} "
                f"{_fmt_ms(delta.b.finished_at)} "
                f"{f'{d:+9.1f}' if d is not None else '        —'}{suffix}"
            )
        if len(diff.resources) > max_resources:
            lines.append(
                f"  … {len(diff.resources) - max_resources} more resources omitted"
            )
    return "\n".join(lines)
