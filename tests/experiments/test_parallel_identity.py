"""Parallel-vs-serial bit-identity on a mini grid (ISSUE 4 satellite).

The warm pool's whole value proposition rests on one invariant: no
matter how a grid is chunked, scheduled, stolen, or retried, every
observable output — engine fingerprints, PLT checksums, pushed bytes,
full timelines — is bit-identical to the serial reference.  This module
asserts that on a mini grid that includes an impaired fig-7 cell, under
several chunking geometries and with a pool of one worker.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.engine import (
    ExperimentEngine,
    Grid,
    SerialExecutor,
    WarmPoolExecutor,
    fingerprint,
)
from repro.experiments.fig5_interleaving import make_test_site
from repro.netsim.conditions import DSL_TESTBED, FixedConditions, InternetConditions
from repro.netsim.impairment import GilbertElliottLoss, ImpairmentConfig, JitterSpec
from repro.sites.corpus import RANDOM_100_PROFILE, generate_corpus
from repro.strategies.simple import NoPushStrategy, PushAllStrategy, PushListStrategy


def mini_grid() -> Grid:
    """Corpus cells, a variable-conditions cell, and an impaired fig-7
    cell — every per-run seed stream the runner derives is exercised."""
    grid = Grid(name="mini")
    corpus = generate_corpus(RANDOM_100_PROFILE, 2, seed=7)
    for index, site in enumerate(corpus):
        grid.add(site.spec, NoPushStrategy(), runs=3, seed_base=index)
        grid.add(site.spec, PushAllStrategy(), runs=3, seed_base=index)
    grid.add(
        corpus[0].spec, NoPushStrategy(), runs=3, seed_base=9,
        conditions=InternetConditions(), label="variable-conditions",
    )
    lossy_spec = make_test_site(120)
    lossy = replace(
        DSL_TESTBED,
        congestion_control="cubic",
        impairment=ImpairmentConfig(
            loss=GilbertElliottLoss(p_enter_bad=0.01, p_exit_bad=0.3),
            jitter=JitterSpec(3.0),
        ),
    )
    grid.add(
        lossy_spec,
        PushListStrategy([lossy_spec.url_of("style.css")], name="push"),
        runs=3,
        seed_base=7,
        conditions=FixedConditions(lossy),
        label="fig7-impaired",
    )
    return grid


@pytest.fixture(scope="module")
def serial_reference():
    grid = mini_grid()
    results = ExperimentEngine(executor=SerialExecutor(), cache=None).run(grid)
    return grid, results


def _identity_facets(results):
    return {
        "fingerprints": [fingerprint(result) for result in results],
        "plt_checksum": round(
            sum(run.plt_ms for result in results for run in result.results), 4
        ),
        "pushed_bytes": [result.pushed_bytes for result in results],
    }


@pytest.mark.parametrize(
    "workers,chunk_runs",
    [
        (2, None),  # auto-sized chunks
        (3, 1),     # maximal fan-out: every run its own chunk
        (2, 2),     # chunks split runs unevenly (3 = 2 + 1)
        (8, 5),     # more workers than chunks; chunks span whole cells
    ],
)
def test_warm_pool_bit_identical_to_serial(serial_reference, workers, chunk_runs):
    grid, serial_results = serial_reference
    with WarmPoolExecutor(max_workers=workers, chunk_runs=chunk_runs) as executor:
        parallel_results = ExperimentEngine(executor=executor, cache=None).run(grid)
    assert _identity_facets(parallel_results) == _identity_facets(serial_results)
    for left, right in zip(serial_results, parallel_results):
        assert left == right  # full dataclass equality incl. timelines


def test_warm_serial_degradation_bit_identical(serial_reference):
    """A pool of one worker runs in-process as the serial executor; the
    shared BuiltSite/RecordDatabase memoization must be invisible."""
    grid, serial_results = serial_reference
    with WarmPoolExecutor(max_workers=1) as executor:
        warm_results = ExperimentEngine(executor=executor, cache=None).run(grid)
    assert warm_results == serial_results


def test_pool_reuse_across_grids_is_stateless(serial_reference):
    """A persistent pool that already ran one grid must produce
    identical results for the next one — worker-side memoization leaks
    state across grids if anything replay-visible is mutated."""
    grid, serial_results = serial_reference
    with WarmPoolExecutor(max_workers=2) as executor:
        engine = ExperimentEngine(executor=executor, cache=None, force=True)
        first = engine.run(grid)
        second = engine.run(grid)
    assert first == serial_results
    assert second == serial_results
