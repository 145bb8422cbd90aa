"""Shared experiment machinery: one replayed run and the cell result types.

The paper replays each website 31 times per setting and reports the
median (§4.1).  :func:`run_single` is one of those replays; the loop
over them is :func:`repro.experiments.engine.executors.replay_runs`,
which every executor calls and :func:`run_repeated` reaches through
the serial one.  Experiments default to fewer repetitions so the
benchmark suite stays tractable, and every experiment config exposes
``runs`` to restore the paper's 31.

:class:`RepeatedResult` is the ``collect`` cell result: it keeps every
run, and its aggregates come from the one definition in
:class:`~repro.experiments.reducers.CellAggregates`, which
:class:`~repro.experiments.reducers.CellSummary` shares.
:data:`REDUCERS` is the table a cell's ``reduce`` names a row of.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..html.builder import BuiltSite
from ..html.spec import WebsiteSpec
from ..netsim.conditions import ConditionSampler
from ..replay.testbed import PageLoadResult, ReplayTestbed
from ..strategies.base import PushStrategy
from ..trace import TraceStore, Tracer, qlog_json
from .reducers import CellAggregates, CellSummary, RunStats
from .seeds import condition_seed, impairment_seed, load_seed

#: The paper's repetition count per site and setting.
PAPER_RUNS = 31


@dataclass
class RepeatedResult(CellAggregates):
    """All runs of one (site, strategy, environment) cell.

    The run list is kept because Fig. 6 and the §4.2 order pipeline
    consume timelines; the aggregates are inherited from
    :class:`CellAggregates`.
    """

    site: str
    strategy: str
    results: List[PageLoadResult]

    @property
    def plt_values(self) -> List[float]:
        return [result.plt_ms for result in self.results]

    @property
    def si_values(self) -> List[float]:
        return [result.speed_index_ms for result in self.results]

    @property
    def pushed_bytes_per_run(self) -> List[int]:
        return [result.pushed_bytes for result in self.results]


#: What an executed cell evaluates to: a ``collect`` cell's
#: :class:`RepeatedResult` or a ``summary`` cell's :class:`CellSummary`.
#: Both inherit the aggregate API (``median_plt``, ``pushed_bytes``...)
#: from :class:`CellAggregates`.
CellResult = Union[RepeatedResult, CellSummary]

#: The reducer table.  ``Cell.reduce`` names a row: the fold applied to
#: each finished run where it ran, and the constructor that builds the
#: cell result from ``(site, strategy, folded runs in run order)``.
REDUCERS: Dict[str, Tuple[Callable, Callable[[str, str, list], CellResult]]] = {
    "collect": (lambda result: result, RepeatedResult),
    "summary": (
        RunStats.from_result,
        lambda site, strategy, runs: CellSummary(site, strategy, tuple(runs)),
    ),
}


def run_single(
    built: BuiltSite,
    db,
    strategy: Optional[PushStrategy],
    run_index: int,
    sampler: ConditionSampler,
    seed_base: int,
    trace=None,
    trace_key: Optional[str] = None,
) -> PageLoadResult:
    """Replay run ``run_index`` of a cell — the unit of the §4.1 loop.

    Every seed derives from ``(seed_base, run_index)`` alone, and the
    samplers are stateless between calls, so a single run is independent
    of every other run: executors may replay the runs of one cell in any
    order (or on different worker processes) and still reproduce the
    serial loop bit for bit.  ``built`` and ``db`` (its pre-recorded
    :class:`~repro.replay.recorddb.RecordDatabase`) are shared by every
    run of every same-spec cell; both are read-only during replay,
    which keeps the reuse invisible in the results.

    ``trace`` (a :class:`repro.trace.store.TraceSpec`) plus ``trace_key``
    (the owning cell's cache key) record this run's wire/event trace and
    store it out-of-band under the spec's directory.  Trace hooks are
    read-only, so the returned result is bit-identical either way; the
    artifact write is atomic, so concurrent workers replaying the same
    run can only produce identical files.
    """
    run_rng = random.Random(condition_seed(seed_base, run_index))
    network = sampler.sample(run_rng)
    testbed = ReplayTestbed(built=built, conditions=network, strategy=strategy, db=db)
    tracer = None
    if trace is not None and trace_key is not None:
        tracer = Tracer(meta={"run_index": run_index})
    result = testbed.run(
        seed=load_seed(seed_base, run_index),
        impairment_seed=impairment_seed(seed_base, run_index),
        tracer=tracer,
    )
    if tracer is not None:
        payload = qlog_json(tracer.trace()).encode("utf-8")
        TraceStore(trace.dir).store(trace_key, run_index, payload)
    return result


def run_repeated(
    spec: WebsiteSpec,
    strategy: Optional[PushStrategy],
    runs: int,
    conditions: Optional[ConditionSampler] = None,
    seed_base: int = 0,
) -> RepeatedResult:
    """Load a site ``runs`` times under one strategy and environment.

    ``conditions`` samples the network per run — ``FixedConditions``
    reproduces the deterministic testbed, ``InternetConditions`` the
    variable live measurements of Fig. 2a.  This is one ``collect``
    cell on the serial executor, without an engine or a cache.
    """
    # The engine package imports this module, so it is imported here.
    from .engine import Cell, SerialExecutor

    cell = Cell(
        spec=spec,
        strategy=strategy,
        runs=runs,
        seed_base=seed_base,
        conditions=conditions,
    )
    return SerialExecutor().run([cell])[0]
