"""Reducer-style result accumulation for experiment cells.

Historically every cell materialized a ``List[PageLoadResult]`` (full
timelines, paint traces, request logs) and post-processed it.  That is
the right shape for the paper's figures — 31 runs per cell, and Fig. 6
and the §4.2 order pipeline genuinely need the timelines — but it puts
a hard ceiling on scale: a population study pumping hundreds of
thousands of loads through the engine cannot keep every run alive.

This module turns the result path into a **reducer protocol**:

* a reducer *folds* each finished :class:`PageLoadResult` into a
  compact per-run payload the moment the run completes (worker-side in
  the warm pool — the timeline never crosses the pipe, never reaches
  the parent, and is garbage the instant the fold returns);
* ordered payload segments *merge associatively* — a chunk covering
  runs ``[lo, hi)`` is a segment, and concatenating adjacent segments
  in ascending run order is an exact (bit-identical) monoid operation,
  so any chunk geometry, any scheduling, and any executor reduce to
  the same value as the serial loop by construction;
* *assembly* finalizes the ordered payloads into the cell's result
  object.

Two reducers are registered:

``collect``
    The identity reducer: payload = the full :class:`PageLoadResult`,
    assembled into :class:`~repro.experiments.runner.RepeatedResult`.
    Every historical experiment runs on it unchanged, which is what
    keeps the fig3/fig6/fig7 golden records and the engine cache
    fingerprints bit-identical.

``summary``
    Bounded-memory payloads: each run is folded to a
    :class:`RunStats` — a dozen scalars, ``__slots__``, no timeline —
    and assembled into a :class:`CellSummary` whose aggregates
    (medians, standard errors, pushed-bytes tally) are computed from
    the ordered scalar stream with the exact same
    :mod:`repro.metrics.stats` reductions :class:`RepeatedResult`
    uses.  The population layer runs exclusively on these.

:class:`RepeatedResult` itself is now a thin shim over this module:
its aggregate properties build a :class:`CellSummary` from the
retained runs and delegate, so there is exactly one aggregation code
path regardless of which reducer a cell selected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..errors import ConfigError, ExperimentError
from ..metrics.speedindex import first_visual_change
from ..metrics.stats import median, std_error

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids import cycle
    from ..replay.testbed import PageLoadResult
    from .runner import RepeatedResult


@dataclass(frozen=True, slots=True)
class RunStats:
    """The bounded per-run payload: every scalar a report can want.

    One of these replaces a full :class:`PageLoadResult` on the wire
    and in memory for ``summary``-reduced cells — the timeline (the
    memory hog: paint traces, request logs, per-resource timings) is
    reduced to ``first_visual_change_ms`` at fold time and dropped.
    """

    plt_ms: float
    speed_index_ms: float
    first_visual_change_ms: float
    pushed_bytes: int
    downlink_bytes: int
    uplink_bytes: int
    connections: int
    requests: int

    @classmethod
    def from_result(cls, result: "PageLoadResult") -> "RunStats":
        return cls(
            plt_ms=result.plt_ms,
            speed_index_ms=result.speed_index_ms,
            first_visual_change_ms=first_visual_change(result.timeline) or 0.0,
            pushed_bytes=result.pushed_bytes,
            downlink_bytes=result.downlink_bytes,
            uplink_bytes=result.uplink_bytes,
            connections=result.connections,
            requests=result.requests,
        )


def _pushed_bytes_tally(
    site: str, strategy: str, per_run: Sequence[int]
) -> int:
    """The pushed-bytes reduction shared by every cell result type.

    Under any one strategy every run pushes the same plan, so the
    per-run values must agree; a disagreement means the cell mixed
    configurations (or a model bug) and is surfaced rather than
    silently reporting the first run's value.
    """
    if not per_run:
        return 0
    distinct = set(per_run)
    if len(distinct) > 1:
        raise ExperimentError(
            f"{site}/{strategy}: pushed_bytes disagree across runs: "
            f"{sorted(distinct)}"
        )
    return distinct.pop()


@dataclass(frozen=True, slots=True)
class CellSummary:
    """Bounded-memory result of one cell: ordered per-run scalars.

    Exposes the same aggregate API as
    :class:`~repro.experiments.runner.RepeatedResult` (``median_plt``,
    ``si_values``, ``pushed_bytes``...), computed with the identical
    :mod:`repro.metrics.stats` reductions, so engine records, reports,
    and cohort accumulators consume either type interchangeably.
    """

    site: str
    strategy: str
    run_stats: Tuple[RunStats, ...]

    # -- RepeatedResult-compatible aggregate API -----------------------
    @property
    def runs(self) -> int:
        return len(self.run_stats)

    @property
    def plt_values(self) -> List[float]:
        return [stats.plt_ms for stats in self.run_stats]

    @property
    def si_values(self) -> List[float]:
        return [stats.speed_index_ms for stats in self.run_stats]

    @property
    def median_plt(self) -> float:
        return median(self.plt_values)

    @property
    def median_si(self) -> float:
        return median(self.si_values)

    @property
    def plt_std_error(self) -> float:
        return std_error(self.plt_values)

    @property
    def si_std_error(self) -> float:
        return std_error(self.si_values)

    @property
    def pushed_bytes_per_run(self) -> List[int]:
        return [stats.pushed_bytes for stats in self.run_stats]

    @property
    def pushed_bytes(self) -> int:
        return _pushed_bytes_tally(
            self.site, self.strategy, self.pushed_bytes_per_run
        )


class RunReducer:
    """One cell-result reduction strategy (see module docstring).

    ``fold`` maps a finished run to its payload (executed where the
    run executed, so heavy state dies young); ``assemble`` finalizes
    the payloads of runs ``0..n`` *in run order* into the cell result.
    Ordered segments of payloads merge by concatenation — exactly
    associative — which is what makes every executor and chunk
    geometry reduce to the serial answer bit for bit.
    """

    #: Registry key; also recorded in cache keys for non-default reducers.
    name = "reducer"

    def fold(self, result: "PageLoadResult"):
        raise NotImplementedError

    def assemble(self, site: str, strategy: str, ordered_payloads: list):
        raise NotImplementedError


class CollectRuns(RunReducer):
    """The identity reducer: keep every run, the historical behaviour."""

    name = "collect"

    def fold(self, result: "PageLoadResult") -> "PageLoadResult":
        return result

    def assemble(
        self, site: str, strategy: str, ordered_payloads: list
    ) -> "RepeatedResult":
        from .runner import RepeatedResult

        return RepeatedResult(
            site=site, strategy=strategy, results=ordered_payloads
        )


class SummarizeRuns(RunReducer):
    """Bounded-memory reducer: scalar payloads, no timelines retained."""

    name = "summary"

    def fold(self, result: "PageLoadResult") -> RunStats:
        return RunStats.from_result(result)

    def assemble(
        self, site: str, strategy: str, ordered_payloads: list
    ) -> CellSummary:
        return CellSummary(
            site=site, strategy=strategy, run_stats=tuple(ordered_payloads)
        )


#: Reducer registry; ``Cell.reduce`` names an entry.
REDUCERS: Dict[str, RunReducer] = {
    reducer.name: reducer for reducer in (CollectRuns(), SummarizeRuns())
}

#: The default reducer — the historical collect-everything path.
DEFAULT_REDUCER = CollectRuns.name


def reducer_for(name: str) -> RunReducer:
    """Look up a registered reducer; raises ``ConfigError``."""
    try:
        return REDUCERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown result reducer {name!r} "
            f"(available: {', '.join(sorted(REDUCERS))})"
        ) from None


def summarize_results(
    site: str, strategy: str, results: Sequence["PageLoadResult"]
) -> CellSummary:
    """Fold already-materialized runs through the summary reducer.

    This is the :class:`RepeatedResult` shim path: aggregates of
    collected cells are produced by the very same reducer the
    population pipeline uses, so there is one aggregation code path.
    """
    reducer = REDUCERS[SummarizeRuns.name]
    return reducer.assemble(
        site, strategy, [reducer.fold(result) for result in results]
    )
