"""The per-load view of a trace, recovered in one walk over the events.

What every reader of a trace wants — the strategy diff and the
waterfall today, the invariant checker and derived timelines next —
comes from :func:`load_view`, so no reader scans the event list itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .core import (
    Milestone,
    PushData,
    PushRejected,
    ResourceFinished,
    ResourceRequested,
    ResourceResponse,
    Trace,
)


@dataclass
class ResourceRow:
    """One resource's timeline; the first event of each kind wins, as
    in the browser's own :class:`~repro.browser.timings.PageTimeline`."""

    url: str
    requested_at: Optional[float] = None
    response_start: Optional[float] = None
    finished_at: Optional[float] = None
    pushed: bool = False
    from_cache: bool = False
    #: Set on the row of a push the client refused (RST_STREAM): a row
    #: of its own, ``requested_at`` the refusal and nothing after it.
    reject_reason: Optional[str] = None


@dataclass
class LoadView:
    #: Event order: a resource's row sits where it was first requested
    #: (or finished), a rejected push's where it was refused.
    rows: List[ResourceRow]
    #: Milestone name -> time of its first occurrence.
    milestones: Dict[str, float]
    push_bytes_before_demand: int


def load_view(trace: Trace) -> LoadView:
    view = LoadView(rows=[], milestones={}, push_bytes_before_demand=0)
    by_url: Dict[str, ResourceRow] = {}
    for event in trace.events:
        kind = type(event)
        if kind is ResourceRequested or kind is ResourceFinished:
            row = by_url.get(event.url)
            if row is None:
                row = by_url[event.url] = ResourceRow(event.url)
                view.rows.append(row)
            if kind is ResourceRequested:
                if row.requested_at is None:
                    row.requested_at = event.t
                    row.pushed = row.pushed or event.pushed
            elif row.finished_at is None:
                row.finished_at = event.t
                row.pushed = row.pushed or event.pushed
                row.from_cache = event.from_cache
        elif kind is ResourceResponse:
            row = by_url.get(event.url)
            if row is not None and row.response_start is None:
                row.response_start = event.t
        elif kind is PushRejected:
            view.rows.append(
                ResourceRow(
                    event.url, event.t, pushed=True, reject_reason=event.reason
                )
            )
        elif kind is PushData:
            if event.before_demand:
                view.push_bytes_before_demand += event.size
        elif kind is Milestone:
            view.milestones.setdefault(event.milestone, event.t)
    return view
