"""Shared experiment machinery: repeated runs and reducer aggregation.

The paper replays each website 31 times per setting and reports the
median (§4.1).  ``run_repeated`` is that loop; experiments default to
fewer repetitions so the benchmark suite stays tractable, and every
experiment config exposes ``runs`` to restore the paper's 31.

Aggregation flows through the reducer protocol of
:mod:`repro.experiments.reducers`: :func:`run_reduced` folds each run
into the cell's reducer as it finishes, and :class:`RepeatedResult` —
the historical collect-everything result — is now a thin shim whose
aggregate properties delegate to the same :class:`CellSummary`
reduction the population pipeline uses.  The shim keeps every figure,
table, and golden record bit-identical while the engine, executors,
and cache no longer assume a materialized run list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from ..browser.cache import BrowserCache
from ..html.builder import BuiltSite, build_site
from ..html.spec import WebsiteSpec
from ..netsim.conditions import (
    DSL_TESTBED,
    ConditionSampler,
    FixedConditions,
    NetworkConditions,
)
from ..replay.testbed import PageLoadResult, ReplayTestbed
from ..strategies.base import PushStrategy
from .reducers import CellSummary, RunReducer, reducer_for, summarize_results
from .seeds import condition_seed, impairment_seed, load_seed

#: The paper's repetition count per site and setting.
PAPER_RUNS = 31


@dataclass
class RepeatedResult:
    """All runs of one (site, strategy, environment) cell.

    A thin shim over the reducer protocol: the run list is retained
    (Fig. 6 and the §4.2 order pipeline consume timelines), but every
    aggregate below is computed by folding the runs through the same
    ``summary`` reducer that population cells use — one aggregation
    code path, whichever way a cell was reduced.
    """

    site: str
    strategy: str
    results: List[PageLoadResult]

    @property
    def summary(self) -> CellSummary:
        """The runs folded through the ``summary`` reducer."""
        return summarize_results(self.site, self.strategy, self.results)

    @property
    def plt_values(self) -> List[float]:
        return [result.plt_ms for result in self.results]

    @property
    def si_values(self) -> List[float]:
        return [result.speed_index_ms for result in self.results]

    @property
    def median_plt(self) -> float:
        return self.summary.median_plt

    @property
    def median_si(self) -> float:
        return self.summary.median_si

    @property
    def plt_std_error(self) -> float:
        return self.summary.plt_std_error

    @property
    def si_std_error(self) -> float:
        return self.summary.si_std_error

    @property
    def pushed_bytes_per_run(self) -> List[int]:
        return [result.pushed_bytes for result in self.results]

    @property
    def pushed_bytes(self) -> int:
        """Bytes pushed per load; asserts the runs agree.

        Flows through the reducer's pushed-bytes tally, which raises
        when runs disagree (a mixed-configuration cell or model bug)
        instead of silently reporting ``results[0]``.
        """
        return self.summary.pushed_bytes


#: What an executed cell evaluates to: the collect reducer's
#: :class:`RepeatedResult` or a bounded :class:`CellSummary`.  Both
#: expose the same aggregate API (``median_plt``, ``pushed_bytes``...).
CellResult = Union[RepeatedResult, CellSummary]


def run_single(
    spec: WebsiteSpec,
    strategy: Optional[PushStrategy],
    run_index: int,
    sampler: Optional[ConditionSampler] = None,
    built: Optional[BuiltSite] = None,
    cache_factory: Optional[Callable[[], BrowserCache]] = None,
    seed_base: int = 0,
    db=None,
    trace=None,
    trace_key: Optional[str] = None,
) -> PageLoadResult:
    """Replay run ``run_index`` of a cell — the unit of the §4.1 loop.

    Every seed derives from ``(seed_base, run_index)`` alone, and the
    samplers are stateless between calls, so a single run is independent
    of every other run: executors may replay the runs of one cell in any
    order (or on different worker processes) and still reproduce the
    serial loop bit for bit.  ``db`` optionally injects a pre-recorded
    :class:`~repro.replay.recorddb.RecordDatabase` so warm workers skip
    re-recording the site on every run; the database is read-only during
    replay, which keeps the reuse invisible in the results.

    ``trace`` (a :class:`repro.trace.store.TraceSpec`) plus ``trace_key``
    (the owning cell's cache key) record this run's wire/event trace and
    store it out-of-band under the spec's directory.  Trace hooks are
    read-only, so the returned result is bit-identical either way; the
    artifact write is atomic, so concurrent workers replaying the same
    run can only produce identical files.
    """
    sampler = sampler or FixedConditions(DSL_TESTBED)
    built = built or build_site(spec)
    run_rng = random.Random(condition_seed(seed_base, run_index))
    network = sampler.sample(run_rng)
    testbed = ReplayTestbed(built=built, conditions=network, strategy=strategy, db=db)
    cache = cache_factory() if cache_factory is not None else None
    tracer = None
    if trace is not None and trace_key is not None:
        from ..trace import BinaryRingSink, ListSink, Tracer

        sink = (
            BinaryRingSink(trace.ring_capacity)
            if trace.ring_capacity
            else ListSink()
        )
        tracer = Tracer(sink=sink, meta={"run_index": run_index})
    result = testbed.run(
        cache=cache,
        seed=load_seed(seed_base, run_index),
        impairment_seed=impairment_seed(seed_base, run_index),
        tracer=tracer,
    )
    if tracer is not None:
        from ..trace import BinaryRingSink, qlog_json
        from ..trace.store import TraceStore

        sink = tracer.sink
        if isinstance(sink, BinaryRingSink):
            payload = sink.dump()
        else:
            payload = qlog_json(tracer.trace()).encode("utf-8")
        TraceStore(trace.dir).store(trace_key, run_index, payload)
    return result


def run_reduced(
    spec: WebsiteSpec,
    strategy: Optional[PushStrategy],
    runs: int,
    reducer: RunReducer,
    conditions: Optional[ConditionSampler] = None,
    built: Optional[BuiltSite] = None,
    cache_factory: Optional[Callable[[], BrowserCache]] = None,
    seed_base: int = 0,
    db=None,
    trace=None,
    trace_key: Optional[str] = None,
):
    """The §4.1 loop as a reduction: fold each run as it finishes.

    Each :class:`PageLoadResult` is handed to ``reducer.fold`` the
    moment its replay returns, so with a bounded-payload reducer (the
    population pipeline's ``summary``) the full result — timeline,
    paint trace, request log — becomes garbage before the next run
    starts: memory stays constant in ``runs``.  The ``collect``
    reducer reproduces the historical materialize-everything loop bit
    for bit.
    """
    sampler = conditions or FixedConditions(DSL_TESTBED)
    built = built or build_site(spec)
    payloads = [
        reducer.fold(
            run_single(
                spec,
                strategy,
                run_index,
                sampler=sampler,
                built=built,
                cache_factory=cache_factory,
                seed_base=seed_base,
                db=db,
                trace=trace,
                trace_key=trace_key,
            )
        )
        for run_index in range(runs)
    ]
    return reducer.assemble(
        spec.name, strategy.name if strategy else "no_push", payloads
    )


def run_repeated(
    spec: WebsiteSpec,
    strategy: Optional[PushStrategy],
    runs: int,
    conditions: Optional[ConditionSampler] = None,
    built: Optional[BuiltSite] = None,
    cache_factory: Optional[Callable[[], BrowserCache]] = None,
    seed_base: int = 0,
    trace=None,
    trace_key: Optional[str] = None,
) -> RepeatedResult:
    """Load a site ``runs`` times under one strategy and environment.

    ``conditions`` samples the network per run — ``FixedConditions``
    reproduces the deterministic testbed, ``InternetConditions`` the
    variable live measurements of Fig. 2a.  ``trace``/``trace_key``
    record a per-run trace artifact, see :func:`run_single`.  This is
    :func:`run_reduced` under the ``collect`` reducer.
    """
    return run_reduced(
        spec,
        strategy,
        runs,
        reducer_for("collect"),
        conditions=conditions,
        built=built,
        cache_factory=cache_factory,
        seed_base=seed_base,
        trace=trace,
        trace_key=trace_key,
    )


def compute_order_for(
    spec: WebsiteSpec,
    runs: int = 5,
    built: Optional[BuiltSite] = None,
) -> List[str]:
    """§4.2 order computation: no-push loads, dependency trees, vote."""
    from ..strategies.order import computed_push_order
    from ..strategies.simple import NoPushStrategy

    built = built or build_site(spec)
    repeated = run_repeated(spec, NoPushStrategy(), runs=runs, built=built)
    timelines = [result.timeline for result in repeated.results]
    return computed_push_order(timelines, built.html_url)
