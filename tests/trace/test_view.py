"""The one-pass load view against the five scanners it replaced.

Each reader of a trace used to walk the whole event list itself; the
walks are kept here, verbatim, as the oracle :func:`load_view` must
agree with on real traces — the golden cell, the lossy QUIC + Early
Hints load, a warm-cache load whose pushes are refused, and an
interleaved load whose pushes run ahead of the parser.
"""

from __future__ import annotations

import pytest

from repro.browser.cache import BrowserCache
from repro.experiments.fig5_interleaving import make_test_site
from repro.html.builder import build_site
from repro.replay.testbed import ReplayTestbed
from repro.strategies.simple import PushAllStrategy
from repro.trace import (
    Milestone,
    PushData,
    PushRejected,
    ResourceFinished,
    ResourceRequested,
    ResourceResponse,
    Tracer,
    load_view,
)

from .test_qlog import _golden_trace, _mechanisms_trace


# ----------------------------------------------------------------------
# the scanners, as deleted from trace/diff.py and browser/waterfall.py
# ----------------------------------------------------------------------
def milestone_times(trace):
    times = {}
    for event in trace.events:
        if isinstance(event, Milestone) and event.milestone not in times:
            times[event.milestone] = event.t
    return times


def resource_times(trace):
    """url -> (first requested_at, first finished_at, pushed)."""
    table = {}
    for event in trace.events:
        if isinstance(event, ResourceRequested):
            requested, finished, pushed = table.get(event.url, (None, None, False))
            if requested is None:
                table[event.url] = (event.t, finished, pushed or event.pushed)
        elif isinstance(event, ResourceFinished):
            requested, finished, pushed = table.get(event.url, (None, None, False))
            if finished is None:
                table[event.url] = (requested, event.t, pushed or event.pushed)
    return table


def rejected_pushes(trace):
    return {
        event.url: event.reason
        for event in trace.events
        if isinstance(event, PushRejected)
    }


def push_bytes_before_demand(trace):
    return sum(
        event.size
        for event in trace.events
        if isinstance(event, PushData) and event.before_demand
    )


def rows_from_trace(trace):
    """Waterfall rows as (url, requested, response, finished, pushed,
    from_cache, reject reason or None) plus the three milestones."""
    rows, by_url = [], {}
    navigation_start, first_paint, onload = 0.0, None, None
    for event in trace.events:
        if type(event) is ResourceRequested:
            if event.url not in by_url:
                row = [event.url, event.t, None, None, event.pushed, False, None]
                by_url[event.url] = row
                rows.append(row)
        elif type(event) is ResourceResponse:
            row = by_url.get(event.url)
            if row is not None and row[2] is None:
                row[2] = event.t
        elif type(event) is ResourceFinished:
            row = by_url.get(event.url)
            if row is not None and row[3] is None:
                row[3] = event.t
                row[4] = row[4] or event.pushed
                row[5] = row[5] or event.from_cache
        elif type(event) is PushRejected:
            rows.append([event.url, event.t, None, None, True, False, event.reason])
        elif type(event) is Milestone:
            if event.milestone == "navigation_start":
                navigation_start = event.t
            elif event.milestone == "first_paint" and first_paint is None:
                first_paint = event.t
            elif event.milestone == "onload" and onload is None:
                onload = event.t
    return rows, navigation_start, first_paint, onload


# ----------------------------------------------------------------------
def _warm_cache_trace():
    testbed = ReplayTestbed(
        built=build_site(make_test_site(30)), strategy=PushAllStrategy()
    )
    cache = BrowserCache()
    testbed.run(seed=9, cache=cache)
    tracer = Tracer()
    testbed.run(seed=9, cache=cache, tracer=tracer)
    return tracer.trace()


def _interleaved_trace():
    """s4 under Interleaving Push: the only one of the four whose pushes
    deliver bytes before the parser asks for them."""
    from repro.sites import synthetic_sites
    from repro.strategies.critical import build_strategy_suite

    deployment = next(
        d
        for d in build_strategy_suite(synthetic_sites()["s4"])
        if d.name == "push_critical_optimized"
    )
    tracer = Tracer()
    ReplayTestbed(built=build_site(deployment.spec), strategy=deployment.strategy).run(
        seed=1, tracer=tracer
    )
    return tracer.trace()


@pytest.mark.parametrize(
    "make_trace",
    [_golden_trace, _mechanisms_trace, _warm_cache_trace, _interleaved_trace],
)
def test_load_view_matches_the_scanners(make_trace):
    trace = make_trace()
    view = load_view(trace)
    resources = [row for row in view.rows if row.reject_reason is None]
    assert resources, "an empty trace proves nothing"

    assert view.milestones == milestone_times(trace)
    assert {
        row.url: (row.requested_at, row.finished_at, row.pushed) for row in resources
    } == resource_times(trace)
    assert {
        row.url: row.reject_reason
        for row in view.rows
        if row.reject_reason is not None
    } == rejected_pushes(trace)
    assert view.push_bytes_before_demand == push_bytes_before_demand(trace)

    rows, navigation_start, first_paint, onload = rows_from_trace(trace)
    assert [
        [
            row.url,
            row.requested_at,
            row.response_start,
            row.finished_at,
            row.pushed,
            row.from_cache,
            row.reject_reason,
        ]
        for row in view.rows
    ] == rows
    assert view.milestones["navigation_start"] == navigation_start
    assert view.milestones.get("first_paint") == first_paint
    assert view.milestones.get("onload") == onload


def test_warm_cache_trace_has_the_rows_the_others_lack():
    view = load_view(_warm_cache_trace())
    assert any(row.reject_reason == "cached" for row in view.rows)
    assert any(row.from_cache for row in view.rows)
    assert load_view(_interleaved_trace()).push_bytes_before_demand > 0
