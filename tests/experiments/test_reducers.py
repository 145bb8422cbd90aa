"""The reducer table: one aggregation, engine identity, caching.

Three contracts:

* a ``collect`` cell's ``RepeatedResult`` and a ``summary`` cell's
  ``CellSummary`` of the same runs expose equal per-run lists and
  aggregates, field for field;
* a ``summary`` cell is bit-identical across serial and warm-pool
  execution under any chunk geometry;
* summary cells round-trip through both cache tiers, and the ``reduce``
  field only enters ``Cell.key()`` when non-default (historical keys
  must not move).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.experiments.engine import (
    Cell,
    ExperimentEngine,
    Grid,
    ResultCache,
    SerialExecutor,
    WarmPoolExecutor,
)
from repro.experiments.fig5_interleaving import make_test_site
from repro.experiments.reducers import CellSummary, RunStats
from repro.experiments.runner import REDUCERS, RepeatedResult, run_repeated
from repro.strategies.simple import NoPushStrategy, PushAllStrategy


@pytest.fixture(scope="module")
def spec():
    return make_test_site(64)


def paired_grid(spec, reduce: str) -> Grid:
    grid = Grid(name=f"reducers-{reduce}")
    grid.add(spec, NoPushStrategy(), runs=5, seed_base=2, reduce=reduce)
    grid.add(spec, PushAllStrategy(), runs=5, seed_base=2, reduce=reduce)
    return grid


#: Everything a cell result exposes about its runs.
AGGREGATES = (
    "plt_values",
    "si_values",
    "pushed_bytes_per_run",
    "median_plt",
    "median_si",
    "plt_std_error",
    "si_std_error",
    "pushed_bytes",
)


def aggregates(result):
    return {name: getattr(result, name) for name in AGGREGATES}


def test_reducer_registry(spec):
    assert sorted(REDUCERS) == ["collect", "summary"]
    with pytest.raises(ConfigError, match="unknown result reducer 'bogus'"):
        Cell(spec=spec, strategy=PushAllStrategy(), runs=1, reduce="bogus")
    with pytest.raises(ConfigError):
        Grid().add(spec, PushAllStrategy(), runs=1, reduce="bogus")


def test_summary_matches_collect_cell(spec):
    collected = run_repeated(spec, PushAllStrategy(), runs=5, seed_base=1)
    summary = SerialExecutor().run(
        [Cell(spec=spec, strategy=PushAllStrategy(), runs=5, seed_base=1, reduce="summary")]
    )[0]
    assert isinstance(collected, RepeatedResult)
    assert isinstance(summary, CellSummary)
    assert (summary.site, summary.strategy) == (collected.site, collected.strategy)
    assert aggregates(collected) == aggregates(summary)
    assert len(set(summary.plt_values)) > 1, "the runs must differ"


def test_pushed_bytes_disagreement_raises():
    def stats(pushed):
        return RunStats(
            plt_ms=1.0,
            speed_index_ms=1.0,
            first_visual_change_ms=0.0,
            pushed_bytes=pushed,
            downlink_bytes=0,
            uplink_bytes=0,
            connections=1,
            requests=1,
        )

    summary = CellSummary("s", "push", (stats(10), stats(20)))
    with pytest.raises(ExperimentError, match="pushed_bytes disagree"):
        summary.pushed_bytes


def test_summary_identical_across_executors_and_chunking(spec):
    serial = ExperimentEngine(executor=SerialExecutor(), cache=None).run(
        paired_grid(spec, "summary")
    )
    for chunk_runs in (1, 2, 5):
        with WarmPoolExecutor(max_workers=2, chunk_runs=chunk_runs) as executor:
            pooled = ExperimentEngine(executor=executor, cache=None).run(
                paired_grid(spec, "summary")
            )
        assert pooled == serial, f"chunk_runs={chunk_runs} diverged"
    # A pool of one worker is the serial executor.
    with WarmPoolExecutor(max_workers=1) as executor:
        one_worker = ExperimentEngine(executor=executor, cache=None).run(
            paired_grid(spec, "summary")
        )
    assert one_worker == serial


def test_summary_equals_collect_summary_through_engine(spec):
    engine = ExperimentEngine(executor=SerialExecutor(), cache=None)
    collected = engine.run(paired_grid(spec, "collect"))
    summaries = engine.run(paired_grid(spec, "summary"))
    assert [aggregates(result) for result in collected] == [
        aggregates(summary) for summary in summaries
    ]


def test_reduce_field_gated_out_of_default_key(spec):
    collect_cell = Cell(spec=spec, strategy=PushAllStrategy(), runs=3)
    explicit = Cell(spec=spec, strategy=PushAllStrategy(), runs=3, reduce="collect")
    summary_cell = Cell(spec=spec, strategy=PushAllStrategy(), runs=3, reduce="summary")
    # The default reducer must not move any historical cache key.
    assert collect_cell.key() == explicit.key()
    # A different stored result type must change the key.
    assert summary_cell.key() != collect_cell.key()


def test_summary_round_trips_both_cache_tiers(spec, tmp_path):
    cache = ResultCache(tmp_path)
    engine = ExperimentEngine(executor=SerialExecutor(), cache=cache)
    grid = paired_grid(spec, "summary")
    first = engine.run(grid)
    # Memory tier.
    memory_hit = engine.run(paired_grid(spec, "summary"))
    assert memory_hit == first
    # Disk tier (fresh engine, same cache directory).
    fresh = ExperimentEngine(executor=SerialExecutor(), cache=cache)
    disk_hit = fresh.run(paired_grid(spec, "summary"))
    assert disk_hit == first
    tiers = [record.cache_tier for record in fresh.last_report.records]
    assert tiers == ["disk", "disk"]


def test_summary_payloads_hold_no_timelines(spec):
    """A summary cell holds no timeline, resource, or paint references."""
    summary = SerialExecutor().run(
        [Cell(spec=spec, strategy=NoPushStrategy(), runs=2, reduce="summary")]
    )[0]
    assert len(summary.run_stats) == 2
    for run in summary.run_stats:
        assert type(run) is RunStats
        assert not hasattr(run, "__dict__")
        assert not hasattr(run, "timeline")
    assert not hasattr(summary, "results")
