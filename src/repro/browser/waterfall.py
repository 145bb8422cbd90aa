"""ASCII waterfall rendering of a replayed page load.

The classic way to read a page load — and the way the paper's authors
inspected why a strategy helped or hurt (§4.3, §5: "based on inspection
of the rendering process") — is a request waterfall.  This renders one
from a :class:`~repro.replay.testbed.PageLoadResult`:

::

    https://w.example/            |█████████░░░░░░░░░░           | 420ms
    https://w.example/a.css       |    ▒▒▒███████                | 310ms  PUSH

``▒`` marks wait (request issued, first byte pending), ``█`` transfer,
and markers show first paint (P) and onload (L).

Two front ends share one renderer and one row type
(:class:`repro.trace.ResourceRow`): :func:`render_waterfall` reads the
browser's :class:`~repro.browser.timings.PageTimeline` (the historical
path, byte-identical output), and :func:`render_waterfall_from_trace`
takes the rows of :func:`repro.trace.load_view` — which additionally
knows about *rejected* pushes, rendered as zero-duration rows so a
wasted PUSH_PROMISE is visible in the picture.
"""

from __future__ import annotations

from typing import List, Optional

from ..replay.testbed import PageLoadResult
from ..trace.core import Trace
from ..trace.view import ResourceRow, load_view

#: Characters per rendered timeline.
DEFAULT_WIDTH = 60


def render_waterfall(result: PageLoadResult, width: int = DEFAULT_WIDTH) -> str:
    """Render the load as a fixed-width ASCII waterfall."""
    timeline = result.timeline
    rows = [
        ResourceRow(
            url=r.url,
            requested_at=r.requested_at,
            response_start=r.response_start,
            finished_at=r.finished_at,
            pushed=r.pushed,
            from_cache=r.from_cache,
        )
        for r in timeline.resources.values()
    ]
    return render_rows(
        rows,
        navigation_start=timeline.navigation_start,
        first_paint=timeline.first_paint,
        onload=timeline.onload,
        width=width,
    )


def render_waterfall_from_trace(trace: Trace, width: int = DEFAULT_WIDTH) -> str:
    """Render a waterfall from a trace event stream instead of a result."""
    view = load_view(trace)
    return render_rows(
        view.rows,
        navigation_start=view.milestones.get("navigation_start", 0.0),
        first_paint=view.milestones.get("first_paint"),
        onload=view.milestones.get("onload"),
        width=width,
    )


def render_rows(
    rows: List[ResourceRow],
    navigation_start: float,
    first_paint: Optional[float],
    onload: Optional[float],
    width: int = DEFAULT_WIDTH,
) -> str:
    """The shared fixed-width renderer behind both front ends; a row
    that was never requested (finish event only) has no bar to draw."""
    rows = [row for row in rows if row.requested_at is not None]
    if not rows:
        return "(no resources)"
    start = navigation_start
    end = max(r.finished_at or r.requested_at for r in rows)
    if onload is not None:
        end = max(end, onload)
    span = max(end - start, 1e-9)

    def column(time: float) -> int:
        return min(int((time - start) / span * width), width - 1)

    lines: List[str] = []
    label_width = max(len(_label(r.url)) for r in rows)
    label_width = min(max(label_width, 10), 44)
    for row in sorted(rows, key=lambda r: r.requested_at):
        bar = [" "] * width
        first_byte = row.response_start or row.requested_at
        finished = row.finished_at or first_byte
        for index in range(column(row.requested_at), column(first_byte) + 1):
            bar[index] = "▒"  # wait
        for index in range(column(first_byte), column(finished) + 1):
            bar[index] = "█"  # transfer
        duration = (row.finished_at or first_byte) - row.requested_at
        lines.append(
            f"{_label(row.url):<{label_width}} |{''.join(bar)}| "
            f"{duration:6.0f}ms {' '.join(_flags(row))}".rstrip()
        )
    markers = [" "] * width
    if first_paint is not None:
        markers[column(first_paint)] = "P"
    if onload is not None:
        markers[column(onload)] = "L"
    lines.append(f"{'P=first paint, L=onload':<{label_width}} |{''.join(markers)}|")
    lines.append(
        f"{'':<{label_width}}  0ms{'':>{max(width - 14, 0)}}{span:7.0f}ms"
    )
    return "\n".join(lines)


def _flags(row: ResourceRow) -> List[str]:
    flags: List[str] = []
    if row.pushed:
        flags.append("PUSH")
    if row.from_cache:
        flags.append("CACHE")
    if row.reject_reason is not None:
        reason = f"({row.reject_reason})" if row.reject_reason else ""
        flags.append(f"REJECTED{reason}")
    return flags


def _label(url: str) -> str:
    tail = url.split("://", 1)[-1]
    if len(tail) > 44:
        tail = "…" + tail[-43:]
    return tail
