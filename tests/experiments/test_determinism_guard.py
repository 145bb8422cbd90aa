"""Determinism guard: replay outputs must stay bit-identical across PRs.

The replay simulator is optimized aggressively (PR 2's hot-path pass and
successors) under a hard constraint: every experiment output must stay
bit-for-bit identical, because results are content-addressed by the
engine cache.  This test runs a small fig-3-shaped grid through the
engine and asserts that both the **cell cache keys** and a **full
fingerprint of every per-cell result** (every run's timeline, byte
counts, and metrics) match a checked-in golden record.

A second, larger replay grid is pinned by **determinism counters**
instead of a golden file: simulator events, HTTP/2 frames on the wire,
bytes on both links and a PLT checksum, summed over 24 page loads.  The
numbers are written into the test; a speed-up must leave them exact,
traced or not.

If this test fails after an intentional semantics change (new seed
derivation, model fix), regenerate the golden record::

    PYTHONPATH=src python tests/experiments/test_determinism_guard.py --regenerate

and say so in the PR — a regeneration invalidates every published
figure and every cached cell.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.engine import ExperimentEngine, Grid
from repro.experiments.engine.fingerprint import fingerprint
from repro.experiments.seeds import load_seed
from repro.html.builder import build_site
from repro.replay.testbed import ReplayTestbed
from repro.sites.corpus import TOP_100_PROFILE, generate_corpus
from repro.strategies.order import computed_push_order
from repro.strategies.simple import NoPushStrategy, PushAllStrategy
from repro.trace import Tracer

GOLDEN_PATH = Path(__file__).parent / "golden_fig3.json"
GOLDEN_LOSSY_PATH = Path(__file__).parent / "golden_fig7_cell.json"
GOLDEN_FIG8_PATH = Path(__file__).parent / "golden_fig8_cell.json"


def _build_grid() -> Grid:
    """A small fig-3-shaped grid: 2 corpus sites x {no push, push all}."""
    corpus = generate_corpus(TOP_100_PROFILE, 2, seed=2018)
    engine = ExperimentEngine(cache=None)
    grid = Grid(name="determinism-guard")
    for index, site in enumerate(corpus):
        order = engine.order_for(site.spec, runs=2)
        grid.add(site.spec, NoPushStrategy(), runs=2, seed_base=index)
        grid.add(site.spec, PushAllStrategy(order=order), runs=2, seed_base=index)
    return grid


def _evaluate(executor=None) -> dict:
    """Run the grid cold (no cache) and fingerprint keys and results."""
    grid = _build_grid()
    engine = ExperimentEngine(executor=executor, cache=None)
    results = engine.run(grid)
    record = {}
    for cell, result in zip(grid.cells, results):
        record[cell.key()] = {
            "site": result.site,
            "strategy": result.strategy,
            "result_fingerprint": fingerprint(result),
            "median_plt_ms": result.median_plt,
            "median_si_ms": result.median_si,
        }
    return record


def _build_lossy_grid() -> Grid:
    """One impaired fig-7 cell: lossy DSL, CUBIC, pushed CSS."""
    from dataclasses import replace

    from repro.experiments.fig5_interleaving import make_test_site
    from repro.netsim.conditions import DSL_TESTBED, FixedConditions
    from repro.netsim.impairment import GilbertElliottLoss, ImpairmentConfig, JitterSpec
    from repro.strategies.simple import PushListStrategy

    spec = make_test_site(120)
    conditions = replace(
        DSL_TESTBED,
        congestion_control="cubic",
        impairment=ImpairmentConfig(
            loss=GilbertElliottLoss(p_enter_bad=0.01, p_exit_bad=0.3),
            jitter=JitterSpec(3.0),
        ),
    )
    grid = Grid(name="determinism-guard-lossy")
    grid.add(
        spec,
        PushListStrategy([spec.url_of("style.css")], name="push"),
        runs=3,
        seed_base=7,
        conditions=FixedConditions(conditions),
        label="lossy-cell",
    )
    return grid


def _evaluate_lossy(executor=None) -> dict:
    """Fingerprint the pinned lossy cell (impairment pipeline active)."""
    grid = _build_lossy_grid()
    results = ExperimentEngine(executor=executor, cache=None).run(grid)
    cell, result = grid.cells[0], results[0]
    return {
        cell.key(): {
            "site": result.site,
            "strategy": result.strategy,
            "result_fingerprint": fingerprint(result),
            "median_plt_ms": result.median_plt,
            "median_si_ms": result.median_si,
        }
    }


def _build_fig8_grid() -> Grid:
    """Two pinned QUIC cells: one clean, one lossy (fig-8 shaped)."""
    from dataclasses import replace

    from repro.experiments.fig8_mechanisms import make_mechanism_site
    from repro.mechanisms import apply_mechanism
    from repro.netsim.conditions import DSL_TESTBED, FixedConditions
    from repro.netsim.impairment import IIDLoss, ImpairmentConfig

    spec, strategy = apply_mechanism(
        "early_hints", make_mechanism_site(html_kb=60, image_size=24_000)
    )
    grid = Grid(name="determinism-guard-fig8")
    for label, impairment in (
        ("quic-clean", None),
        ("quic-lossy", ImpairmentConfig(loss=IIDLoss(rate=0.02))),
    ):
        conditions = replace(
            DSL_TESTBED,
            transport="quic",
            server_delay_ms=30.0,
            impairment=impairment,
        )
        grid.add(
            spec,
            strategy,
            runs=2,
            seed_base=3,
            conditions=FixedConditions(conditions),
            label=label,
        )
    return grid


def _evaluate_fig8(executor=None) -> dict:
    """Fingerprint the pinned QUIC cells (transport + 103 paths active)."""
    grid = _build_fig8_grid()
    results = ExperimentEngine(executor=executor, cache=None).run(grid)
    record = {}
    for cell, result in zip(grid.cells, results):
        record[cell.key()] = {
            "label": cell.label,
            "site": result.site,
            "strategy": result.strategy,
            "result_fingerprint": fingerprint(result),
            "median_plt_ms": result.median_plt,
            "median_si_ms": result.median_si,
        }
    return record


#: The frozen replay grid's counters, summed over every load; they have
#: not moved since the grid was frozen, through every hot-path rewrite.
FROZEN_GRID_COUNTERS = {
    "replays": 24,
    "events_processed": 63_945,
    "frames_on_wire": 52_440,
    "downlink_bytes": 54_007_478,
    "uplink_bytes": 898_421,
    "plt_checksum_ms": 34_551.2777,
}


def _frozen_grid_counters(tracers=None) -> dict:
    """Replay the frozen fig-3-shaped grid serially and sum its counters.

    Three ``TOP_100`` sites at seed 2018; per site, two no-push loads
    recover the §4.2 push order, then three runs each of no-push and
    push-all in that order, on the DSL testbed.  With ``tracers`` (a
    list) every load gets a fresh :class:`Tracer`, appended to it.
    """
    counters = dict.fromkeys(FROZEN_GRID_COUNTERS, 0)

    def probe(view) -> None:
        counters["replays"] += 1
        counters["events_processed"] += view.events_processed
        counters["frames_on_wire"] += view.server_frames

    def load(testbed, site_index, run_index):
        tracer = None
        if tracers is not None:
            tracer = Tracer()
            tracers.append(tracer)
        result = testbed.run(
            seed=load_seed(site_index, run_index), probe=probe, tracer=tracer
        )
        counters["downlink_bytes"] += result.downlink_bytes
        counters["uplink_bytes"] += result.uplink_bytes
        # PLTs are exact simulated milliseconds; rounding each partial
        # sum keeps the checksum independent of float summation noise.
        counters["plt_checksum_ms"] = round(
            counters["plt_checksum_ms"] + result.plt_ms, 4
        )
        return result

    for site_index, site in enumerate(generate_corpus(TOP_100_PROFILE, 3, seed=2018)):
        built = build_site(site.spec)
        order_testbed = ReplayTestbed(built=built, strategy=NoPushStrategy())
        timelines = [load(order_testbed, site_index, run).timeline for run in range(2)]
        order = computed_push_order(timelines, built.html_url)
        for strategy in (NoPushStrategy(), PushAllStrategy(order=order)):
            testbed = ReplayTestbed(built=built, strategy=strategy, db=order_testbed.db)
            for run_index in range(3):
                load(testbed, site_index, run_index)
    return counters


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_frozen_grid_determinism_counters(traced):
    """Events, frames, link bytes and PLTs of the frozen grid are exact
    — and a live tracer on every load, which only observes, moves none
    of them."""
    tracers = [] if traced else None
    assert _frozen_grid_counters(tracers) == FROZEN_GRID_COUNTERS
    if traced:
        assert len(tracers) == FROZEN_GRID_COUNTERS["replays"]
        assert sum(len(tracer.events()) for tracer in tracers) > 0


def test_outputs_match_golden_record():
    assert GOLDEN_PATH.exists(), (
        "golden record missing; generate it with "
        "`python tests/experiments/test_determinism_guard.py --regenerate`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = _evaluate()
    assert set(actual) == set(golden), (
        "engine cache keys drifted — cell fingerprinting or specs changed; "
        "cached results would silently miss"
    )
    for key, expected in golden.items():
        assert actual[key] == expected, (
            f"cell {expected['site']}/{expected['strategy']} no longer "
            f"reproduces the golden outputs: {actual[key]} != {expected}"
        )


def test_lossy_cell_matches_golden_record():
    """The impairment pipeline itself is under the determinism contract:
    a lossy cell replayed from its seeds must be bit-identical too."""
    assert GOLDEN_LOSSY_PATH.exists(), (
        "lossy golden record missing; generate it with "
        "`python tests/experiments/test_determinism_guard.py --regenerate`"
    )
    golden = json.loads(GOLDEN_LOSSY_PATH.read_text())
    actual = _evaluate_lossy()
    assert set(actual) == set(golden), (
        "lossy cell cache key drifted — impairment/conditions "
        "fingerprinting changed; cached results would silently miss"
    )
    for key, expected in golden.items():
        assert actual[key] == expected, (
            "the lossy cell no longer reproduces its golden outputs: "
            f"{actual[key]} != {expected}"
        )


def test_fig8_quic_cells_match_golden_record():
    """The QUIC transport and the 103 Early Hints path are under the
    same determinism contract as the TCP+push stack: the pinned clean
    and lossy QUIC cells must replay bit-identically from their seeds."""
    assert GOLDEN_FIG8_PATH.exists(), (
        "fig8 golden record missing; generate it with "
        "`python tests/experiments/test_determinism_guard.py --regenerate`"
    )
    golden = json.loads(GOLDEN_FIG8_PATH.read_text())
    actual = _evaluate_fig8()
    assert set(actual) == set(golden), (
        "fig8 cell cache keys drifted — transport/conditions "
        "fingerprinting changed; cached results would silently miss"
    )
    for key, expected in golden.items():
        assert actual[key] == expected, (
            f"the {expected['label']} QUIC cell no longer reproduces its "
            f"golden outputs: {actual[key]} != {expected}"
        )


def test_warm_pool_fig8_cells_match_golden_record():
    """Run-parallel execution covers the QUIC cells too."""
    from repro.experiments.engine import WarmPoolExecutor

    golden = json.loads(GOLDEN_FIG8_PATH.read_text())
    with WarmPoolExecutor(max_workers=3, chunk_runs=1) as executor:
        actual = _evaluate_fig8(executor=executor)
    assert actual == golden


def test_warm_pool_matches_golden_record():
    """The warm worker pool is under the same golden contract as the
    serial path: chunked, work-stolen, run-parallel execution must
    reproduce the checked-in record bit for bit."""
    from repro.experiments.engine import WarmPoolExecutor

    golden = json.loads(GOLDEN_PATH.read_text())
    with WarmPoolExecutor(max_workers=4, chunk_runs=1) as executor:
        actual = _evaluate(executor=executor)
    assert actual == golden


def test_warm_pool_lossy_cell_matches_golden_record():
    """Run-level parallelism must not disturb the impairment seed
    stream: the pinned lossy fig-7 cell split one-run-per-chunk still
    matches its golden record."""
    from repro.experiments.engine import WarmPoolExecutor

    golden = json.loads(GOLDEN_LOSSY_PATH.read_text())
    with WarmPoolExecutor(max_workers=3, chunk_runs=1) as executor:
        actual = _evaluate_lossy(executor=executor)
    assert actual == golden


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--regenerate", action="store_true")
    if parser.parse_args().regenerate:
        GOLDEN_PATH.write_text(
            json.dumps(_evaluate(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN_PATH}")
        GOLDEN_LOSSY_PATH.write_text(
            json.dumps(_evaluate_lossy(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN_LOSSY_PATH}")
        GOLDEN_FIG8_PATH.write_text(
            json.dumps(_evaluate_fig8(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN_FIG8_PATH}")
