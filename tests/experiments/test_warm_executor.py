"""Warm pool internals: chunking, assembly, site memo, fault tolerance.

Complements ``test_parallel_identity`` (end-to-end bit-identity) with
targeted coverage of the scheduler pieces: the chunk planner's
largest-first order, the property that the assembler's reduction is
independent of chunk arrival order, the bounded site memo both
executors replay behind, and the crash paths — a SIGKILLed worker
mid-grid, a worker that dies on the same chunk until the retry budget
runs out, and a cell that raises deterministically inside a worker —
as a structured failure, or, for a package error, as the same
exception the serial executor raises.
"""

from __future__ import annotations

import os
import pickle
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.errors import ExecutorError, SimulationError
from repro.experiments.engine import (
    Cell,
    ExperimentEngine,
    Grid,
    SerialExecutor,
    WarmPoolExecutor,
    plan_chunks,
)
from repro.experiments.engine import executors
from repro.experiments.engine.executors import _CellAssembler
from repro.experiments.fig5_interleaving import make_test_site
from repro.sim import Simulator
from repro.sites.corpus import RANDOM_100_PROFILE, generate_corpus, replay_weight
from repro.strategies.base import PushStrategy
from repro.strategies.simple import NoPushStrategy, PushAllStrategy


class ExplodingStrategy(PushStrategy):
    """Raises inside the worker — a deterministic cell failure."""

    name = "exploding"

    def plan(self, main_url, db, is_authoritative):
        raise RuntimeError("injected strategy failure")


class RunawayStrategy(PushStrategy):
    """Plans by running a model loop into the simulator's event cap —
    a deterministic package error (``SimulationError``)."""

    name = "runaway"

    def plan(self, main_url, db, is_authoritative):
        sim = Simulator()

        def tick():
            sim.schedule(1.0, tick)

        tick()
        sim.run(max_events=50)


def corpus_cells(runs: int = 3):
    corpus = generate_corpus(RANDOM_100_PROFILE, 2, seed=11)
    cells = []
    for index, site in enumerate(corpus):
        cells.append(
            Cell(spec=site.spec, strategy=NoPushStrategy(), runs=runs, seed_base=index)
        )
        cells.append(
            Cell(spec=site.spec, strategy=PushAllStrategy(), runs=runs, seed_base=index)
        )
    return cells


# ----------------------------------------------------------------------
# chunk planning
# ----------------------------------------------------------------------
def test_chunks_cover_each_cell_exactly_once():
    cells = corpus_cells(runs=5)
    chunks = plan_chunks(cells, workers=3, chunk_runs=2)
    for index, cell in enumerate(cells):
        ranges = sorted(
            (c.run_lo, c.run_hi) for c in chunks if c.cell_index == index
        )
        covered = []
        for lo, hi in ranges:
            assert lo < hi <= cell.runs
            covered.extend(range(lo, hi))
        assert covered == list(range(cell.runs))


def test_chunks_are_scheduled_heaviest_first():
    cells = corpus_cells(runs=4)
    chunks = plan_chunks(cells, workers=2, chunk_runs=2)
    weights = [chunk.weight for chunk in chunks]
    assert weights == sorted(weights, reverse=True)
    heaviest = max(replay_weight(cell.spec) for cell in cells)
    assert chunks[0].weight == heaviest * (chunks[0].run_hi - chunks[0].run_lo)


def test_auto_chunking_targets_multiple_chunks_per_worker():
    cells = corpus_cells(runs=8)
    chunks = plan_chunks(cells, workers=2)
    # 4 cells x 8 runs = 32 units; 2 workers want ~8 chunks minimum.
    assert len(chunks) >= 8
    assert all(chunk.run_hi - chunk.run_lo <= 4 for chunk in chunks)


# ----------------------------------------------------------------------
# assembler: chunk arrival order never reorders aggregation
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_assembler_reduction_is_arrival_order_independent(data):
    """Property: for any partition of each cell's runs into chunks and
    any arrival order of those chunks, the assembled per-cell result
    lists equal the serial ``[run_0, run_1, ...]`` order exactly."""
    corpus = generate_corpus(RANDOM_100_PROFILE, 1, seed=3)
    spec = corpus[0].spec
    run_counts = data.draw(
        st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=4)
    )
    cells = [
        Cell(spec=spec, strategy=None, runs=runs, seed_base=index)
        for index, runs in enumerate(run_counts)
    ]
    # Partition each cell's run range into random contiguous chunks;
    # payloads are (cell_index, run_index) markers standing in for
    # PageLoadResults, so ordering is fully observable.
    pending = []
    for index, cell in enumerate(cells):
        lo = 0
        while lo < cell.runs:
            hi = data.draw(st.integers(min_value=lo + 1, max_value=cell.runs))
            pending.append((index, lo, [(index, run) for run in range(lo, hi)]))
            lo = hi
    arrival = data.draw(st.permutations(pending))

    assembler = _CellAssembler(cells)
    finished = {}
    for cell_index, run_lo, payload in arrival:
        done = assembler.add(cell_index, run_lo, payload, wall_ms=1.0)
        if done is not None:
            repeated, wall_ms = done
            assert cell_index not in finished
            finished[cell_index] = (repeated, wall_ms)
    assert sorted(finished) == list(range(len(cells)))
    for index, cell in enumerate(cells):
        repeated, wall_ms = finished[index]
        assert repeated.results == [(index, run) for run in range(cell.runs)]
        assert repeated.site == spec.name
        assert repeated.strategy == "no_push"
        # Cell wall time is the sum over its chunks.
        chunk_count = sum(1 for c, _lo, _p in pending if c == index)
        assert wall_ms == pytest.approx(chunk_count * 1.0)


# ----------------------------------------------------------------------
# site memo: one bounded, content-keyed memo behind both executors
# ----------------------------------------------------------------------
def test_pool_evicting_site_memo_matches_serial():
    """More distinct sites than the memo holds, one run per chunk, two
    real workers: every worker evicts and rebuilds sites mid-grid, and
    the results still equal the serial executor's."""
    specs = [make_test_site(20 + index) for index in range(executors._SITE_MEMO_MAX + 2)]
    # Two rounds over the sites, so first-round sites are replayed again
    # after they have been evicted.
    cells = [
        Cell(spec=spec, strategy=strategy, runs=2, seed_base=index)
        for strategy in (NoPushStrategy(), PushAllStrategy())
        for index, spec in enumerate(specs)
    ]
    serial = SerialExecutor().run(cells)
    assert len(executors._site_memo) == executors._SITE_MEMO_MAX
    with WarmPoolExecutor(max_workers=2, chunk_runs=1) as executor:
        pooled = executor.run(cells)
    assert pooled == serial


def test_consecutive_grids_build_a_site_once(monkeypatch):
    """The memo outlives a grid: a second grid over the same spec on
    the same executor replays the site the first one built — the same
    function the pool workers run, which is what keeps them warm."""
    built_specs = []
    real_build_site = executors.build_site

    def counting_build_site(spec):
        built_specs.append(spec.name)
        return real_build_site(spec)

    monkeypatch.setattr(executors, "build_site", counting_build_site)
    executors._site_memo.clear()
    spec = make_test_site(48)
    executor = SerialExecutor()
    engine = ExperimentEngine(executor=executor, cache=None, force=True)
    for strategy in (NoPushStrategy(), PushAllStrategy()):
        grid = Grid(name=strategy.name)
        grid.add(spec, strategy, runs=2)
        grid.add(spec, strategy, runs=1, seed_base=1)
        engine.run(grid)
    assert built_specs == [spec.name]


# ----------------------------------------------------------------------
# fault tolerance
# ----------------------------------------------------------------------
class KillingTransport(executors.WorkerTransport):
    """The real transport, except that it SIGKILLs the worker a chunk
    is about to be sent to whenever ``kill(chunk)`` says so — a
    deterministic crash point for a real worker process."""

    def __init__(self, size, kill):
        super().__init__(size)
        self.kill = kill

    def send(self, worker, chunk, payload):
        if self.kill(chunk):
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(timeout=10)
        return super().send(worker, chunk, payload)


def test_sigkilled_worker_chunk_is_requeued_and_results_identical():
    cells = corpus_cells(runs=3)
    serial = SerialExecutor().run(cells)
    executor = WarmPoolExecutor(max_workers=3, chunk_runs=1)
    killed = []

    def kill_once(chunk):
        if killed or chunk.cell_index != 1:
            return False
        killed.append(chunk)
        return True

    executor.transport = KillingTransport(executor.workers, kill_once)
    try:
        results = executor.run(cells)
    finally:
        executor.close()
    assert len(killed) == 1
    assert executor.stats["respawns"] >= 1
    assert results == serial


def test_repeated_crashes_exhaust_retry_budget():
    cells = corpus_cells(runs=2)
    executor = WarmPoolExecutor(max_workers=2, chunk_runs=1)
    transport = KillingTransport(
        executor.workers, lambda chunk: chunk.cell_index == 0 and chunk.run_lo == 0
    )
    executor.transport = transport
    try:
        with pytest.raises(ExecutorError) as excinfo:
            executor.run(cells)
        error = excinfo.value
        assert [index for index, _label, _reason in error.failed_cells] == [0]
        assert "crashed" in error.failed_cells[0][2]
        # The pool recovers: the same executor completes the grid once
        # the fault injection stops.
        transport.kill = lambda chunk: False
        assert executor.run(cells) == SerialExecutor().run(cells)
    finally:
        executor.close()


def test_deterministic_cell_error_is_structured_and_partial():
    """A cell raising inside the worker fails that cell only; finished
    cells keep their results and cache entries (engine side)."""
    corpus = generate_corpus(RANDOM_100_PROFILE, 1, seed=11)
    good = Cell(spec=corpus[0].spec, strategy=NoPushStrategy(), runs=2, label="good")
    bad = Cell(
        spec=corpus[0].spec, strategy=ExplodingStrategy(), runs=2, label="bad"
    )
    with WarmPoolExecutor(max_workers=2) as executor:
        engine = ExperimentEngine(executor=executor, cache=None)
        with pytest.raises(ExecutorError) as excinfo:
            engine.run(Grid(name="partial", cells=[good, bad]))
        failed = excinfo.value.failed_cells
        assert [(index, label) for index, label, _ in failed] == [(1, "bad")]
        assert "RuntimeError" in failed[0][2]
        # The good cell's result survived into the memory tier.
        assert engine.run_cell(good) is not None
        assert engine.last_report.records[-1].cache_tier == "memory"


def test_executor_rejects_use_after_close():
    executor = WarmPoolExecutor(max_workers=2)
    executor.close()
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError):
        executor.run(corpus_cells(runs=1))


def test_package_error_keeps_its_type_on_both_executors():
    """The same failing cell raises the same exception type and message
    from the serial executor and from a pool worker, and the pool does
    not retry it (a raise is not a crash)."""
    corpus = generate_corpus(RANDOM_100_PROFILE, 1, seed=11)
    good = Cell(spec=corpus[0].spec, strategy=NoPushStrategy(), runs=2, label="good")
    runaway = Cell(spec=corpus[0].spec, strategy=RunawayStrategy(), runs=2, label="runaway")
    with pytest.raises(SimulationError) as serial:
        SerialExecutor().run([good, runaway])
    finished = []
    with WarmPoolExecutor(max_workers=2, chunk_runs=1) as executor:
        with pytest.raises(SimulationError) as pooled:
            executor.run([good, runaway], lambda index, _r, _w: finished.append(index))
        assert executor.stats["retries"] == 0
        assert executor.stats["respawns"] == 0
    assert str(pooled.value) == str(serial.value)
    assert "exceeded 50 events" in str(pooled.value)
    # The rest of the grid still finished before the raise.
    assert finished == [0]


def test_every_package_error_survives_a_pipe():
    """Each ``ReproError`` class pickles with its type, message and
    attributes, so a worker can send the exception itself."""
    samples = []
    for cls in vars(errors).values():
        if not (isinstance(cls, type) and issubclass(cls, errors.ReproError)):
            continue
        if cls is errors.StreamError:
            samples.append(cls("stream failed", 7, 8))
        else:
            samples.append(cls("failed"))
    assert len(samples) >= 10
    for exc in samples:
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)
        assert vars(clone) == vars(exc)
        assert executors._portable_error(exc) is exc


def test_an_unpicklable_error_travels_as_text():
    class LocalError(Exception):
        pass

    assert executors._portable_error(LocalError("boom")) == "LocalError: boom"
