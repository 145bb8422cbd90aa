"""The streaming population driver: N·100k loads in constant memory.

A population study replays, per cohort, ``loads`` simulated clients —
each one a fresh network/device draw from the cohort's
:class:`~repro.population.profiles.PopulationSampler` — under both the
no-push baseline and the study's push strategy.  Every load is its own
single-run ``summary`` cell, so:

* the whole engine machinery (executors, warm pool, caches, records)
  is reused unchanged — a population batch is just a grid;
* the worker-side reducer folds each replay to a bounded
  :class:`~repro.experiments.reducers.CellSummary` before it crosses
  the pipe, so no ``PageLoadResult`` survives its own replay;
* both arms of a load share one seed base (common random numbers, see
  :func:`repro.experiments.seeds.population_seed_base`), so the paired
  delta isolates the strategy from the client draw.

Loads stream through in batches of ``batch_size`` cells per grid; the
per-batch engine report is drained into tally counters after each
batch, so driver-side state is the cohort accumulators plus one batch
— constant in ``loads``.  Seeds depend only on (study seed, cohort
index, load index), and accumulators fold in load order regardless of
batch geometry, so changing ``batch_size`` (or the executor, or the
chunking) cannot change a single reported number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import ConfigError
from ..experiments.engine import ExperimentEngine, Grid
from ..experiments.seeds import population_seed_base
from .cohorts import Cohort, default_cohorts, quick_cohorts
from .report import CohortAccumulator, PopulationResult


@dataclass
class PopulationConfig:
    """Knobs of one population study."""

    #: Simulated clients per cohort (each is a paired no-push/push load).
    loads: int = 200
    #: Cells per engine grid; memory is O(batch), results are not
    #: affected (seeds and fold order are batch-size invariant).
    batch_size: int = 64
    #: Study seed; every load's draw derives from it deterministically.
    seed: int = 2018
    #: Push strategy name compared against no-push (CLI spelling).
    strategy: str = "push_all"
    #: t-digest compression of every per-cohort quantile sketch.
    digest_compression: int = 100
    #: Explicit cohort list; ``None`` selects the defaults.
    cohorts: Optional[List[Cohort]] = None
    #: With ``cohorts=None``: small sites, for smokes and goldens.
    quick: bool = False

    def resolve_cohorts(self) -> List[Cohort]:
        if self.cohorts is not None:
            return list(self.cohorts)
        return quick_cohorts() if self.quick else default_cohorts()


def _strategy_for(name: str, spec):
    """Population studies reuse the CLI's strategy spelling."""
    from ..cli import _make_strategy

    if name == "no_push":
        raise ConfigError("the study strategy must differ from the baseline")
    return _make_strategy(name, spec)


def run_population(
    config: PopulationConfig,
    engine: Optional[ExperimentEngine] = None,
) -> PopulationResult:
    """Run the study; returns per-cohort streaming accumulators."""
    if config.loads < 1:
        raise ConfigError(f"loads must be >= 1, got {config.loads}")
    if config.batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {config.batch_size}")
    engine = engine or ExperimentEngine()
    cohorts = config.resolve_cohorts()
    result = PopulationResult(strategy=config.strategy, seed=config.seed)
    for cohort_index, cohort in enumerate(cohorts):
        strategy = _strategy_for(config.strategy, cohort.spec)
        accumulator = CohortAccumulator(
            cohort.name, config.strategy, config.digest_compression
        )
        for batch_lo in range(0, config.loads, config.batch_size):
            batch_hi = min(config.loads, batch_lo + config.batch_size)
            grid = Grid(name=f"population/{cohort.name}/{batch_lo}")
            for load_index in range(batch_lo, batch_hi):
                seed_base = population_seed_base(
                    config.seed, cohort_index, load_index
                )
                for arm in (None, strategy):
                    grid.add(
                        cohort.spec,
                        arm,
                        runs=1,
                        seed_base=seed_base,
                        conditions=cohort.sampler,
                        label=f"{cohort.name}/{load_index}",
                        reduce="summary",
                    )
            results = engine.run(grid)
            for pair_index in range(0, len(results), 2):
                accumulator.add_pair(results[pair_index], results[pair_index + 1])
            _drain_reports(engine, result)
        result.cohorts.append(accumulator)
    return result


def _drain_reports(engine: ExperimentEngine, result: PopulationResult) -> None:
    """Fold per-batch engine reports into tallies, then drop them.

    The engine appends one :class:`ProgressReport` (with one record per
    cell) per grid; over a 100k-load study that would dominate memory.
    Cache-tier hits are the only thing the study keeps.
    """
    for report in engine.reports:
        for record in report.records:
            tier = record.cache_tier or ("hit" if record.cache_hit else "miss")
            result.cache_tiers[tier] = result.cache_tiers.get(tier, 0) + 1
    engine.reports.clear()
