"""qlog export: schema validity, round trips, and the pinned golden trace.

If the golden trace fails after an intentional model change, regenerate::

    PYTHONPATH=src python tests/trace/test_qlog.py --regenerate

and say so in the PR — trace timings are derived from the same simulated
clock as every published figure, so a golden-trace change implies the
determinism guard goldens changed too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments.fig5_interleaving import make_test_site
from repro.html.builder import build_site
from repro.replay.testbed import ReplayTestbed
from repro.strategies.simple import PushAllStrategy
from repro.trace import Tracer, parse_qlog_events, qlog_json, to_qlog

try:
    from .schema_validator import validate
except ImportError:  # executed as a script for --regenerate
    sys.path.insert(0, str(Path(__file__).parent))
    from schema_validator import validate

SCHEMA_PATH = Path(__file__).parent / "qlog_schema.json"
GOLDEN_PATH = Path(__file__).parent / "golden_trace_cell.json"

#: The pinned cell: the fig-5 test site under push-all, one run, seed 4.
GOLDEN_SEED = 4


def _golden_trace():
    spec = make_test_site(30)
    testbed = ReplayTestbed(built=build_site(spec), strategy=PushAllStrategy())
    tracer = Tracer()
    testbed.run(seed=GOLDEN_SEED, tracer=tracer)
    return tracer.trace()


def test_qlog_document_matches_schema():
    document = to_qlog(_golden_trace())
    # Round-trip through JSON so tuples/ints normalize exactly as a
    # consumer reading the export off disk would see them.
    document = json.loads(json.dumps(document))
    schema = json.loads(SCHEMA_PATH.read_text())
    errors = validate(document, schema)
    assert not errors, "\n".join(errors)


def test_qlog_export_is_deterministic():
    assert qlog_json(_golden_trace()) == qlog_json(_golden_trace())


def test_qlog_parse_round_trip():
    trace = _golden_trace()
    parsed = parse_qlog_events(json.loads(qlog_json(trace)))
    assert parsed.events == trace.events
    assert parsed.meta == trace.meta


def test_parse_skips_unknown_event_names():
    trace = _golden_trace()
    document = json.loads(qlog_json(trace))
    document["traces"][0]["events"].insert(
        0, {"time": 0.0, "name": "future:event", "data": {"x": 1}}
    )
    parsed = parse_qlog_events(document)
    assert parsed.events == trace.events


def test_golden_trace_unchanged():
    assert GOLDEN_PATH.exists(), (
        "golden trace missing; generate it with "
        "`PYTHONPATH=src python tests/trace/test_qlog.py --regenerate`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = json.loads(qlog_json(_golden_trace()))
    assert actual == golden, (
        "the pinned cell no longer produces the golden trace — the wire "
        "or browser model changed; regenerate only if that was intentional"
    )


def _mechanisms_trace():
    """A lossy QUIC + 103 Early Hints load: exercises every event the
    mechanisms subsystem added (hints sent/received, preload discovery,
    per-stream loss recovery)."""
    from dataclasses import replace

    from repro.experiments.fig8_mechanisms import make_mechanism_site
    from repro.mechanisms import apply_mechanism
    from repro.netsim.conditions import DSL_TESTBED
    from repro.netsim.impairment import IIDLoss, ImpairmentConfig

    spec, strategy = apply_mechanism("early_hints", make_mechanism_site(html_kb=60))
    conditions = replace(
        DSL_TESTBED,
        transport="quic",
        server_delay_ms=30.0,
        impairment=ImpairmentConfig(loss=IIDLoss(rate=0.05)),
    )
    testbed = ReplayTestbed(
        built=build_site(spec), conditions=conditions, strategy=strategy
    )
    tracer = Tracer()
    testbed.run(seed=2, tracer=tracer)
    return tracer.trace()


def test_mechanism_events_export_to_qlog():
    trace = _mechanisms_trace()
    document = json.loads(qlog_json(trace))
    names = {event["name"] for event in document["traces"][0]["events"]}
    assert {
        "hints:early_hints_sent",
        "hints:early_hints_received",
        "hints:preload_discovered",
        "quic:stream_recovered",
    } <= names
    schema = json.loads(SCHEMA_PATH.read_text())
    errors = validate(document, schema)
    assert not errors, "\n".join(errors)
    parsed = parse_qlog_events(document)
    assert parsed.events == trace.events


def _regenerate() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(json.loads(qlog_json(_golden_trace())), indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
