"""The one artifact format, property-based: qlog JSON round trips every
event class exactly, and a damaged export is a typed error."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.experiments.fig5_interleaving import make_test_site
from repro.html.builder import build_site
from repro.replay.testbed import ReplayTestbed
from repro.strategies.simple import PushAllStrategy
from repro.trace import Trace, Tracer, parse_qlog_events, qlog_json
from repro.trace.core import EVENT_BY_NAME
from tests.support.damage import damaged_json

_VALUE_STRATEGIES = {
    "float": st.floats(allow_nan=False, allow_infinity=False, width=64),
    "int": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "bool": st.booleans(),
    "str": st.text(max_size=40),
}


@st.composite
def trace_events(draw):
    cls = draw(st.sampled_from(sorted(EVENT_BY_NAME.values(), key=lambda c: c.__name__)))
    values = {
        f.name: draw(_VALUE_STRATEGIES[f.type])
        for f in fields(cls)
        if f.name != "t"
    }
    t = draw(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    return cls(t=t, **values)


@given(st.lists(trace_events(), max_size=50))
@settings(max_examples=50, deadline=None)
def test_dump_load_round_trip(events):
    trace = Trace(meta={"site": "t.example", "seed": 3}, events=events)
    restored = parse_qlog_events(json.loads(qlog_json(trace)))
    assert restored.events == events
    assert [type(e) for e in restored.events] == [type(e) for e in events]
    assert restored.meta == trace.meta
    assert qlog_json(restored) == qlog_json(trace)


def test_load_rejects_foreign_payload():
    for document in (
        "not a qlog document",
        [],
        {},
        {"traces": []},
        {"traces": [{"meta": {}}]},
        {"traces": [{"events": [{"name": "browser:milestone", "time": 1.0}]}]},
    ):
        with pytest.raises(ConfigError, match="malformed qlog"):
            parse_qlog_events(document)


def test_unknown_event_names_are_skipped():
    document = {"traces": [{"events": [{"name": "future:event", "time": 1.0, "data": {}}]}]}
    assert parse_qlog_events(document).events == []


# ----------------------------------------------------------------------
# a real export, damaged
# ----------------------------------------------------------------------
def _real_export() -> str:
    testbed = ReplayTestbed(
        built=build_site(make_test_site(30)), strategy=PushAllStrategy()
    )
    tracer = Tracer()
    testbed.run(seed=4, tracer=tracer)
    return qlog_json(tracer.trace())


_EXPORT = _real_export()
_EXPORT_EVENTS = parse_qlog_events(json.loads(_EXPORT)).events


@given(damaged_json(json.loads(_EXPORT)))
@settings(max_examples=300, deadline=None)
def test_damaged_export_parses_or_raises_config_error(damaged):
    document, path = damaged
    try:
        trace = parse_qlog_events(document)
    except ConfigError:
        return
    # Anything that parsed is well typed: it exports and parses again.
    assert parse_qlog_events(json.loads(qlog_json(trace))).events == trace.events
    if path[:3] != ["traces", 0, "events"] and path != ["traces"] and path != ["traces", 0]:
        assert trace.events == _EXPORT_EVENTS
