"""Tracing must be a pure observer: bit-identical results either way."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.browser.cache import BrowserCache
from repro.experiments.engine import ExperimentEngine, Grid, SerialExecutor
from repro.experiments.engine.executors import WarmPoolExecutor
from repro.experiments.engine.fingerprint import fingerprint
from repro.experiments.fig5_interleaving import make_test_site
from repro.html.builder import build_site
from repro.netsim.conditions import DSL_TESTBED, FixedConditions
from repro.netsim.impairment import (
    GilbertElliottLoss,
    IIDLoss,
    ImpairmentConfig,
    JitterSpec,
    ReorderSpec,
)
from repro.replay.testbed import ReplayTestbed
from repro.sites.synthetic import synthetic_sites
from repro.strategies.simple import NoPushStrategy, PushAllStrategy, PushListStrategy
from repro.trace import PacketDropped, PacketReordered, Tracer, qlog_json
from repro.trace.store import TraceSpec, TraceStore


@pytest.fixture(scope="module")
def built():
    return build_site(make_test_site(30))


def test_traced_run_is_bit_identical(built):
    testbed = ReplayTestbed(built=built, strategy=PushAllStrategy())
    plain = testbed.run(seed=3)
    tracer = Tracer()
    traced = testbed.run(seed=3, tracer=tracer)
    assert fingerprint(plain) == fingerprint(traced)
    assert len(tracer.events()) > 0


def test_traced_run_with_warm_cache_is_bit_identical(built):
    testbed = ReplayTestbed(built=built, strategy=NoPushStrategy())
    cache_a, cache_b = BrowserCache(), BrowserCache()
    testbed.run(seed=1, cache=cache_a)
    testbed.run(seed=1, cache=cache_b)
    plain = testbed.run(seed=2, cache=cache_a)
    tracer = Tracer()
    traced = testbed.run(seed=2, cache=cache_b, tracer=tracer)
    assert fingerprint(plain) == fingerprint(traced)
    assert any(type(e).__name__ == "CacheHit" for e in tracer.events())


def test_traced_lossy_run_is_bit_identical(built):
    """Impairment RNG draws must not be perturbed by trace emissions."""
    conditions = replace(
        DSL_TESTBED,
        congestion_control="cubic",
        impairment=ImpairmentConfig(
            loss=GilbertElliottLoss(p_enter_bad=0.05, p_exit_bad=0.3),
            jitter=JitterSpec(3.0),
        ),
    )
    testbed = ReplayTestbed(
        built=built, conditions=conditions, strategy=PushAllStrategy()
    )
    plain = testbed.run(seed=11, impairment_seed=99)
    tracer = Tracer()
    traced = testbed.run(seed=11, impairment_seed=99, tracer=tracer)
    assert fingerprint(plain) == fingerprint(traced)


def test_impairment_events_conserve_the_link_counters():
    """Every drop and reorder the impairment pipelines count is traced
    once, on both links of a lossy, reordering replay of ``s1``."""
    conditions = replace(
        DSL_TESTBED,
        impairment=ImpairmentConfig(loss=IIDLoss(0.02), reorder=ReorderSpec(0.05, 10.0)),
    )
    testbed = ReplayTestbed(built=build_site(synthetic_sites()["s1"]), conditions=conditions)
    counted = {}

    def probe(view):
        pipelines = (view.topology.downlink.impairments, view.topology.uplink.impairments)
        counted["dropped"] = sum(p.packets_dropped for p in pipelines)
        counted["reordered"] = sum(p.packets_reordered for p in pipelines)

    tracer = Tracer()
    testbed.run(seed=1, tracer=tracer, probe=probe)
    traced = {
        "dropped": sum(type(e) is PacketDropped for e in tracer.events()),
        "reordered": sum(type(e) is PacketReordered for e in tracer.events()),
    }
    assert traced == counted
    assert counted["dropped"] > 0 and counted["reordered"] > 0


def test_same_seed_produces_byte_identical_qlog(built):
    testbed = ReplayTestbed(built=built, strategy=PushAllStrategy())
    tracers = [Tracer(), Tracer()]
    for tracer in tracers:
        testbed.run(seed=6, tracer=tracer)
    assert qlog_json(tracers[0].trace()) == qlog_json(tracers[1].trace())


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
def _grid(spec, trace_spec=None, runs=2):
    grid = Grid(name="trace-test")
    grid.add(spec, PushAllStrategy(), runs=runs, seed_base=3, trace=trace_spec)
    return grid


def test_trace_spec_does_not_change_cell_key(tmp_path):
    spec = make_test_site(30)
    traced = _grid(spec, TraceSpec(dir=str(tmp_path))).cells[0]
    untraced = _grid(spec).cells[0]
    assert traced.key() == untraced.key()


def test_engine_stores_artifacts_and_bypasses_stale_cache(tmp_path):
    spec = make_test_site(30)
    engine = ExperimentEngine(executor=SerialExecutor())
    plain = engine.run(_grid(spec))[0]  # populates the memory cache
    trace_spec = TraceSpec(dir=str(tmp_path))
    traced_grid = _grid(spec, trace_spec)
    traced = engine.run(traced_grid)[0]
    assert fingerprint(plain) == fingerprint(traced)
    record = engine.last_report.records[0]
    assert not record.cache_hit, "cached result without traces must recompute"
    key = traced_grid.cells[0].key()
    store = TraceStore(str(tmp_path))
    assert store.has_all(key, 2)
    for run_index in range(2):
        document = json.loads(store.load(key, run_index).decode("utf-8"))
        assert document["traces"][0]["meta"]["run_index"] == run_index
    # With artifacts on disk the same grid is now answerable from cache.
    engine.run(traced_grid)
    assert engine.last_report.records[0].cache_hit


def test_corrupt_artifact_is_quarantined_and_recomputed(tmp_path):
    spec = make_test_site(30)
    trace_spec = TraceSpec(dir=str(tmp_path))
    grid = _grid(spec, trace_spec)
    engine = ExperimentEngine(executor=SerialExecutor())
    engine.run(grid)
    key = grid.cells[0].key()
    store = TraceStore(str(tmp_path))
    good = store.load(key, 1)
    store.path(key, 1).write_bytes(b"garbage")
    assert store.load(key, 1) is None  # quarantined
    assert not store.has_all(key, 2)
    engine.run(grid)  # cache bypassed, artifact rewritten
    assert store.load(key, 1) == good


def test_serial_and_warm_pool_traces_are_byte_identical(tmp_path):
    spec = make_test_site(30)
    serial_dir, pool_dir = tmp_path / "serial", tmp_path / "pool"
    engine = ExperimentEngine(executor=SerialExecutor())
    engine.run(_grid(spec, TraceSpec(dir=str(serial_dir))))
    with WarmPoolExecutor(max_workers=2) as executor:
        ExperimentEngine(executor=executor).run(
            _grid(spec, TraceSpec(dir=str(pool_dir)))
        )
    key = _grid(spec).cells[0].key()
    for run_index in range(2):
        serial_payload = TraceStore(str(serial_dir)).load(key, run_index)
        pool_payload = TraceStore(str(pool_dir)).load(key, run_index)
        assert serial_payload is not None
        assert serial_payload == pool_payload


def test_lossy_cell_traces_via_engine(tmp_path):
    """The golden-guard lossy cell shape, traced through the engine."""
    spec = make_test_site(120)
    conditions = replace(
        DSL_TESTBED,
        congestion_control="cubic",
        impairment=ImpairmentConfig(
            loss=GilbertElliottLoss(p_enter_bad=0.01, p_exit_bad=0.3),
            jitter=JitterSpec(3.0),
        ),
    )
    grid = Grid(name="lossy-traced")
    grid.add(
        spec,
        PushListStrategy([spec.url_of("style.css")], name="push"),
        runs=3,
        seed_base=7,
        conditions=FixedConditions(conditions),
        trace=TraceSpec(dir=str(tmp_path)),
    )
    untraced = Grid(name="lossy-plain")
    untraced.add(
        spec,
        PushListStrategy([spec.url_of("style.css")], name="push"),
        runs=3,
        seed_base=7,
        conditions=FixedConditions(conditions),
    )
    engine = ExperimentEngine(executor=SerialExecutor(), force=True)
    traced_result = engine.run(grid)[0]
    plain_result = engine.run(untraced)[0]
    assert fingerprint(traced_result) == fingerprint(plain_result)
    assert TraceStore(str(tmp_path)).has_all(grid.cells[0].key(), 3)
