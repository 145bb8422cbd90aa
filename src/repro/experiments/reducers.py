"""Cell results: per-run payloads and the one aggregation over them.

The paper replays each site 31 times per setting and reports medians
(§4.1).  A cell's ``reduce`` names how its runs are kept — a row of
:data:`repro.experiments.runner.REDUCERS`, which holds a *fold*, run
on each finished :class:`PageLoadResult` where it ran (in a pool
worker the timeline never crosses the pipe), and the *result*
constructor that builds the cell result from the folded runs in run
order.  Ordered runs merge by concatenation, an exact associative
operation, so any chunk geometry and any executor reduce to the
serial loop's value bit for bit.

``collect``
    Identity fold; the result is a
    :class:`~repro.experiments.runner.RepeatedResult` holding every
    run.  Fig. 6 and the §4.2 order pipeline read its timelines.

``summary``
    Folds each run to a :class:`RunStats` — a dozen scalars, no
    timeline — and builds a :class:`CellSummary`.  The population
    layer and the optimizer run on these.

Both result types inherit :class:`CellAggregates`, the one definition
of the medians, standard errors and pushed-bytes tally; each supplies
only its per-run lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..errors import ExperimentError
from ..metrics.speedindex import first_visual_change
from ..metrics.stats import median, std_error

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids import cycle
    from ..replay.testbed import PageLoadResult


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


class CellAggregates:
    """The aggregate API of a cell result, defined once.

    A subclass supplies ``site``, ``strategy`` and three per-run lists
    in run order — ``plt_values``, ``si_values`` and
    ``pushed_bytes_per_run`` — and inherits every aggregate below.  No
    slots and no fields of its own, so a subclass keeps its field list
    (and with it every fingerprint and pickled cache entry).
    """

    __slots__ = ()

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
    def pushed_bytes(self) -> int:
        return _pushed_bytes_tally(
            self.site, self.strategy, self.pushed_bytes_per_run
        )


@dataclass(frozen=True, slots=True)
class CellSummary(CellAggregates):
    """Bounded-memory result of one cell: ordered per-run scalars."""

    site: str
    strategy: str
    run_stats: Tuple[RunStats, ...]

    @property
    def plt_values(self) -> List[float]:
        return [stats.plt_ms for stats in self.run_stats]

    @property
    def si_values(self) -> List[float]:
        return [stats.speed_index_ms for stats in self.run_stats]

    @property
    def pushed_bytes_per_run(self) -> List[int]:
        return [stats.pushed_bytes for stats in self.run_stats]
