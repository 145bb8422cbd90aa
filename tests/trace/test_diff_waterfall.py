"""Diff + waterfall edge cases: zero-duration rows, rejected pushes, CLI."""

from __future__ import annotations

import pytest

from repro.browser.cache import BrowserCache
from repro.browser.waterfall import render_waterfall, render_waterfall_from_trace
from repro.experiments.fig5_interleaving import make_test_site
from repro.html.builder import build_site
from repro.replay.testbed import ReplayTestbed
from repro.strategies.simple import NoPushStrategy, PushAllStrategy
from repro.trace import (
    Milestone,
    PushRejected,
    ResourceFinished,
    ResourceRequested,
    ResourceResponse,
    Trace,
    Tracer,
    diff_traces,
    load_view,
    render_diff,
)


def _trace(events, strategy="A"):
    return Trace(meta={"site": "t.example", "strategy": strategy}, events=events)


# ----------------------------------------------------------------------
# zero-duration resources
# ----------------------------------------------------------------------
def test_zero_duration_resource_renders():
    trace = _trace(
        [
            Milestone(0.0, "navigation_start"),
            ResourceRequested(10.0, "https://t.example/instant.css", False),
            ResourceResponse(10.0, "https://t.example/instant.css"),
            ResourceFinished(10.0, "https://t.example/instant.css", 0, False, True),
            ResourceRequested(10.0, "https://t.example/slow.js", False),
            ResourceFinished(40.0, "https://t.example/slow.js", 100, False, False),
            Milestone(40.0, "onload"),
        ]
    )
    text = render_waterfall_from_trace(trace)
    instant = next(line for line in text.splitlines() if "instant.css" in line)
    assert "0ms" in instant
    assert "█" in instant  # a zero-duration row still gets a visible cell


def test_zero_duration_resource_diffs_cleanly():
    events = [
        ResourceRequested(10.0, "https://t.example/instant.css", False),
        ResourceFinished(10.0, "https://t.example/instant.css", 0, False, True),
    ]
    diff = diff_traces(_trace(list(events), "A"), _trace(list(events), "B"))
    assert diff.divergence is None
    (delta,) = diff.resources
    assert delta.delta_finished == 0.0
    render_diff(diff)  # must not raise


# ----------------------------------------------------------------------
# rejected pushes
# ----------------------------------------------------------------------
def test_rejected_push_renders_as_flagged_row():
    trace = _trace(
        [
            Milestone(0.0, "navigation_start"),
            ResourceRequested(5.0, "https://t.example/", False),
            ResourceFinished(30.0, "https://t.example/", 900, False, False),
            PushRejected(12.0, "tcp-1", 2, "https://t.example/app.css", "cached"),
            Milestone(30.0, "onload"),
        ]
    )
    text = render_waterfall_from_trace(trace)
    rejected = next(line for line in text.splitlines() if "app.css" in line)
    assert "PUSH" in rejected
    assert "REJECTED(cached)" in rejected
    assert "0ms" in rejected


def test_rejected_push_counted_and_noted_in_diff():
    base = [
        ResourceRequested(5.0, "https://t.example/", False),
        ResourceFinished(30.0, "https://t.example/", 900, False, False),
    ]
    a = _trace(
        base + [PushRejected(12.0, "tcp-1", 2, "https://t.example/app.css", "cached")],
        "push_all",
    )
    b = _trace(list(base), "no_push")
    diff = diff_traces(a, b)
    assert diff.pushes_rejected_a == 1
    assert diff.pushes_rejected_b == 0
    text = render_diff(diff)
    assert "pushes rejected" in text
    app = next(d for d in diff.resources if "app.css" in d.url)
    assert any("rejected" in note for note in app.notes)


def test_real_rejected_push_with_warm_cache():
    """A warm client cache makes the server's pushes observably wasted."""
    built = build_site(make_test_site(30))
    testbed = ReplayTestbed(built=built, strategy=PushAllStrategy())
    cache = BrowserCache()
    testbed.run(seed=9, cache=cache)  # cold load fills the cache
    tracer = Tracer()
    testbed.run(seed=9, cache=cache, tracer=tracer)
    rejections = [e for e in tracer.events() if type(e) is PushRejected]
    assert rejections, "warm-cache push should be rejected"
    assert all(e.reason == "cached" for e in rejections)
    text = render_waterfall_from_trace(tracer.trace())
    assert "REJECTED(cached)" in text


# ----------------------------------------------------------------------
# the two waterfall front ends agree structurally
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "strategy, protocol",
    [
        pytest.param(NoPushStrategy(), "h2", id="strategy0"),
        pytest.param(PushAllStrategy(), "h2", id="strategy1"),
        pytest.param(NoPushStrategy(), "h1", id="h1"),
    ],
)
def test_trace_waterfall_matches_result_rows(strategy, protocol):
    built = build_site(make_test_site(30))
    testbed = ReplayTestbed(built=built, strategy=strategy, protocol=protocol)
    tracer = Tracer()
    result = testbed.run(seed=2, tracer=tracer)
    view = load_view(tracer.trace())
    rows = view.rows
    timeline = result.timeline
    assert {row.url for row in rows} == set(timeline.resources)
    assert view.milestones["navigation_start"] == timeline.navigation_start
    assert view.milestones["connect_end"] == timeline.connect_end
    assert view.milestones.get("first_paint") == timeline.first_paint
    assert view.milestones.get("onload") == timeline.onload
    for row in rows:
        resource = timeline.resources[row.url]
        assert row.finished_at == resource.finished_at
        assert row.pushed == resource.pushed
        # The wait/transfer split: HTTP/1.1 loads report it too.
        assert row.response_start == resource.response_start
    # Both renderings carry every resource and the same milestones row.
    legacy = render_waterfall(result)
    traced = render_waterfall_from_trace(tracer.trace())
    for url in timeline.resources:
        label = url.split("://", 1)[-1]
        assert label in legacy and label in traced


def test_diff_render_is_stable():
    built = build_site(make_test_site(30))
    tracers = []
    for strategy in (PushAllStrategy(), NoPushStrategy()):
        testbed = ReplayTestbed(built=built, strategy=strategy)
        tracer = Tracer()
        testbed.run(seed=2, tracer=tracer)
        tracers.append(tracer)
    once = render_diff(diff_traces(tracers[0].trace(), tracers[1].trace()))
    again = render_diff(diff_traces(tracers[0].trace(), tracers[1].trace()))
    assert once == again
    assert "first divergence" in once
    assert "push_all" in once and "no_push" in once


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_trace_cli_runs_and_is_stable(capsys, tmp_path):
    from repro.cli import main

    argv = [
        "trace", "s1", "--strategy", "custom", "--vs", "no_push",
        "--seed", "1", "--width", "40", "--qlog", str(tmp_path),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "trace diff: s1" in first
    assert "milestones (ms):" in first
    assert "P=first paint, L=onload" in first
    exports = sorted(p.name for p in tmp_path.iterdir())
    assert exports == ["s1.custom.qlog.json", "s1.no_push.qlog.json"]


def test_trace_cli_qlog_exports_validate(tmp_path):
    import json
    from pathlib import Path

    from repro.cli import main

    from .schema_validator import validate

    main(["trace", "s1", "--seed", "1", "--qlog", str(tmp_path)])
    schema = json.loads(
        (Path(__file__).parent / "qlog_schema.json").read_text()
    )
    for export in tmp_path.iterdir():
        document = json.loads(export.read_text())
        errors = validate(document, schema)
        assert not errors, "\n".join(errors)
