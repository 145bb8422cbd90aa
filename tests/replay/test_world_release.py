"""A finished load frees itself by reference counting.

``ReplayTestbed.run`` releases the world it built — simulator,
connections, servers, page — whether the load finished or raised, and
``Simulator.run`` keeps the cyclic collector paused.  Together they
hold only if no reference cycle survives a load, so each case runs one
load with the collector off and asserts that a collection afterwards
finds nothing.  A new cycle anywhere in the world fails here instead of
quietly costing the collector's time on every load.
"""

import gc

import pytest

# Imported up front: a module's first import leaves cyclic garbage of
# its own (class objects), which is not the load's.
import repro.experiments.seeds  # noqa: F401
from repro.errors import ConfigError
from repro.html.builder import build_site
from repro.netsim.conditions import CELLULAR_LTE, DSL_TESTBED, LOSSY_DSL
from repro.replay import testbed as testbed_module
from repro.replay.testbed import ReplayTestbed
from repro.sites.synthetic import s2_landing
from repro.strategies.simple import NoPushStrategy, PushAllStrategy
from repro.trace import Tracer


@pytest.fixture(scope="module")
def built():
    return build_site(s2_landing())


def cyclic_garbage_of(load) -> int:
    """Objects only the cyclic collector could free after ``load()``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        load()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


CASES = {
    "dsl_no_push": dict(conditions=DSL_TESTBED, strategy=NoPushStrategy()),
    "dsl_push_all": dict(conditions=DSL_TESTBED, strategy=PushAllStrategy()),
    "lossy_dsl": dict(conditions=LOSSY_DSL),
    "cellular_lte": dict(conditions=CELLULAR_LTE),
    "lossy_dsl_quic": dict(conditions=LOSSY_DSL.with_transport("quic")),
    "h1": dict(conditions=DSL_TESTBED, protocol="h1"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_finished_load_leaves_no_cyclic_garbage(built, case):
    testbed = ReplayTestbed(built=built, **CASES[case])
    assert cyclic_garbage_of(lambda: testbed.run(seed=3)) == 0


def test_traced_load_leaves_no_cyclic_garbage(built):
    testbed = ReplayTestbed(built=built, strategy=PushAllStrategy())
    tracer = Tracer()
    assert cyclic_garbage_of(lambda: testbed.run(seed=3, tracer=tracer)) == 0
    assert tracer.events()  # the trace outlives the world it observed


@pytest.mark.parametrize("case", ["dsl_push_all", "lossy_dsl_quic", "h1"])
def test_timed_out_load_leaves_no_cyclic_garbage(built, case, monkeypatch):
    """A load cut off mid-transfer: timers armed, bytes in flight."""
    monkeypatch.setattr(testbed_module, "LOAD_TIMEOUT_MS", 100.0)
    testbed = ReplayTestbed(built=built, **CASES[case])

    def load():
        with pytest.raises(ConfigError, match="did not finish"):
            testbed.run(seed=3)

    assert cyclic_garbage_of(load) == 0


def test_probe_counters_survive_the_release(built):
    testbed = ReplayTestbed(built=built, conditions=LOSSY_DSL, strategy=PushAllStrategy())
    seen = {}
    probes = []

    def probe(view):
        seen.update(events=view.events_processed, frames=view.server_frames)
        probes.append(view)

    result = testbed.run(seed=3, probe=probe)
    view = probes[0]
    assert (view.events_processed, view.server_frames) == (seen["events"], seen["frames"])
    assert seen["frames"] > 0
    downlink = view.topology.downlink
    assert downlink.bytes_transmitted == result.downlink_bytes
    assert downlink.impairments.packets_seen > 0


def test_probe_reads_zero_frames_on_an_h1_load(built):
    """HTTP/1.1 has no frames: its servers add nothing to the count."""
    seen = {}
    result = ReplayTestbed(built=built, **CASES["h1"]).run(
        seed=3, probe=lambda view: seen.update(frames=view.server_frames)
    )
    assert result.requests > 1
    assert seen["frames"] == 0
