"""Pluggable cell executors.

* :class:`SerialExecutor` runs cells in submission order in-process —
  the reference behaviour, bit-for-bit identical to the historical
  hand-rolled experiment loops.
* :class:`WarmPoolExecutor` fans work out across a **persistent pool
  of warm worker processes**.  A cell's N seeded repeats fan out as
  independent run-range chunks, a size-aware scheduler dispatches the
  largest chunks first so stragglers cannot serialize the tail, and
  every chunk message carries its own cell — the protocol is
  stateless, so a worker stays warm across grids.  Results are
  reassembled in run order, so they are bit-identical to
  :class:`SerialExecutor` regardless of scheduling.

Both executors replay through one function, :func:`replay_runs` — the
§4.1 loop over a run range — behind one bounded, content-keyed site
memo (:func:`_memoized_site`): in the parent for the serial path, in
each worker process for the pool.

All executors expose ``run(cells, on_result)``: ``on_result(index,
result, wall_ms)`` fires as each cell finishes (in completion order for
the parallel executors), and the returned list is positionally aligned
with ``cells``.

Determinism argument for the warm pool: every seed in a replay derives
from the cell's ``(seed_base, run_index)`` alone (see
:mod:`repro.experiments.seeds`), condition samplers are stateless
between calls, and the shared ``BuiltSite``/``RecordDatabase`` are
read-only during replay.  A run is therefore a pure function of its
cell and run index — chunking, work stealing, retries, and worker
reuse change *where* and *when* a run executes but never its result,
and the assembler's run-ordered reduction reproduces the serial
aggregation exactly.

Fault tolerance: each worker owns a duplex pipe; the parent waits on
pipes and process sentinels together, so a crashed or SIGKILLed worker
is detected immediately, its in-flight chunk is requeued (bounded by
``_MAX_RETRIES``), and a replacement worker is spawned.  Cells that fail
permanently are reported via :class:`~repro.errors.ExecutorError` after
the rest of the grid completes — never as a raw ``BrokenProcessPool``.

Failures are as deterministic as results: a cell that raises a
:class:`~repro.errors.ReproError` in a worker is not retried, and once
the grid is done the parent raises that exception — same type, same
message — as :class:`SerialExecutor` would have.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...errors import ConfigError, ExecutorError, ExperimentError, ReproError
from ...html.builder import BuiltSite, build_site
from ...netsim.conditions import DSL_TESTBED, FixedConditions
from ...replay.recorder import record_site
from ...sites.corpus import replay_weight
from ..reducers import reducer_for
from ..runner import CellResult, run_single
from .cell import Cell
from .fingerprint import fingerprint

#: Callback fired per finished cell: (cell index, result, wall ms).
ResultCallback = Callable[[int, CellResult, float], None]

#: Auto chunk sizing targets this many chunks per worker, so work
#: stealing has slack without drowning the pipes in tiny messages.
_CHUNKS_PER_WORKER = 4

#: How often a chunk is requeued after worker crashes before its cell is
#: reported as permanently failed.
_MAX_RETRIES = 2

#: Site memo: same-spec cells share one ``BuiltSite`` and one
#: ``RecordDatabase`` — in this process for the serial path, in each
#: worker process for the pool.  Both are read-only during replay, the
#: key is a content fingerprint of the spec, and
#: ``build_site``/``record_site`` are deterministic, so the memo is
#: invisible in every result.
_SITE_MEMO_MAX = 8
_site_memo: "OrderedDict[str, Tuple[BuiltSite, object]]" = OrderedDict()


def _site_key(cell: Cell) -> str:
    return fingerprint({"site": cell.spec})


def _memoized_site(cell: Cell, key: str) -> Tuple[BuiltSite, object]:
    entry = _site_memo.get(key)
    if entry is None:
        built = build_site(cell.spec)
        entry = _site_memo[key] = (built, record_site(built))
    _site_memo.move_to_end(key)
    while len(_site_memo) > _SITE_MEMO_MAX:
        _site_memo.popitem(last=False)
    return entry


def replay_runs(
    cell: Cell, run_lo: int, run_hi: int, site_key: Optional[str] = None
) -> list:
    """The §4.1 loop over runs ``[run_lo, run_hi)`` of one cell.

    Returns the per-run payloads in run order.  The cell's reducer
    folds each run as it finishes — for ``summary`` cells only the
    bounded payload is kept (and, in a pool worker, crosses the pipe);
    no full :class:`PageLoadResult` outlives its own replay.
    ``site_key`` is the cell's :func:`_site_key` when the caller
    already has it (the pool computes it once per cell, not per chunk).
    """
    built, db = _memoized_site(cell, site_key or _site_key(cell))
    sampler = cell.conditions or FixedConditions(DSL_TESTBED)
    # The trace key is a pure function of the cell, so every worker and
    # the parent agree on the trace artifact names.
    trace_key = cell.key() if cell.trace is not None else None
    fold = reducer_for(cell.reduce).fold
    return [
        fold(
            run_single(
                built,
                db,
                cell.strategy,
                run_index,
                sampler=sampler,
                seed_base=cell.seed_base,
                trace=cell.trace,
                trace_key=trace_key,
            )
        )
        for run_index in range(run_lo, run_hi)
    ]


def _assemble(cell: Cell, payloads: list) -> CellResult:
    return reducer_for(cell.reduce).assemble(
        cell.spec.name, cell.strategy_name, payloads
    )


class Executor:
    """Interface: run a batch of cells, return positionally aligned results."""

    name = "executor"

    def run(
        self,
        cells: Sequence[Cell],
        on_result: Optional[ResultCallback] = None,
    ) -> List[CellResult]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled resources; idempotent."""


class SerialExecutor(Executor):
    """Run every cell in submission order in the current process."""

    name = "serial"

    def run(
        self,
        cells: Sequence[Cell],
        on_result: Optional[ResultCallback] = None,
    ) -> List[CellResult]:
        results: List[CellResult] = []
        for index, cell in enumerate(cells):
            started = time.perf_counter()
            result = _assemble(cell, replay_runs(cell, 0, cell.runs))
            wall_ms = (time.perf_counter() - started) * 1000.0
            results.append(result)
            if on_result is not None:
                on_result(index, result, wall_ms)
        return results


# ----------------------------------------------------------------------
# Warm worker pool
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Chunk:
    """One schedulable unit: a contiguous run range of a single cell."""

    cell_index: int
    run_lo: int
    run_hi: int
    #: Scheduling weight (site replay cost × run count); orders only.
    weight: int

    @property
    def key(self) -> Tuple[int, int, int]:
        return (self.cell_index, self.run_lo, self.run_hi)


def plan_chunks(
    cells: Sequence[Cell],
    workers: int,
    chunk_runs: Optional[int] = None,
) -> List[Chunk]:
    """Split cells into run-range chunks, heaviest first.

    Chunks never span cells.  ``chunk_runs=None`` auto-sizes so the
    grid yields roughly ``_CHUNKS_PER_WORKER`` chunks per worker; an
    explicit value pins the maximum runs per chunk.  The sort is total
    (weight, then position) so the schedule is deterministic.
    """
    total_runs = sum(cell.runs for cell in cells)
    if chunk_runs is None:
        chunk_runs = max(1, math.ceil(total_runs / (max(1, workers) * _CHUNKS_PER_WORKER)))
    elif chunk_runs < 1:
        raise ConfigError(f"chunk_runs must be >= 1, got {chunk_runs}")
    chunks: List[Chunk] = []
    for index, cell in enumerate(cells):
        weight = replay_weight(cell.spec)
        lo = 0
        while lo < cell.runs:
            hi = min(cell.runs, lo + chunk_runs)
            chunks.append(Chunk(index, lo, hi, weight * (hi - lo)))
            lo = hi
    chunks.sort(key=lambda c: (-c.weight, c.cell_index, c.run_lo))
    return chunks


class _CellAssembler:
    """Reduce out-of-order chunk results back into serial-order cells.

    Chunks of one cell may arrive in any order from any worker; their
    *reduced segments* (per-run payloads, already folded worker-side by
    the cell's reducer) are keyed by run range and concatenated in
    ascending run order once the cell is complete — the exact
    aggregation order of the serial loop, making the
    reduction independent of scheduling by construction.  Concatenation
    of ordered segments is associative, so any chunk geometry yields
    the same payload sequence and hence a bit-identical assembly.
    """

    def __init__(self, cells: Sequence[Cell]):
        self.cells = list(cells)
        self._parts: List[Dict[int, list]] = [dict() for _ in self.cells]
        self._got: List[int] = [0] * len(self.cells)
        self._walls: List[float] = [0.0] * len(self.cells)

    def add(
        self, cell_index: int, run_lo: int, results: list, wall_ms: float
    ) -> Optional[Tuple[CellResult, float]]:
        """Record one chunk; returns the finished cell when complete."""
        parts = self._parts[cell_index]
        if run_lo in parts:
            raise ExperimentError(
                f"duplicate chunk for cell {cell_index} at run {run_lo}"
            )
        parts[run_lo] = list(results)
        self._got[cell_index] += len(results)
        self._walls[cell_index] += wall_ms
        cell = self.cells[cell_index]
        if self._got[cell_index] < cell.runs:
            return None
        ordered: list = []
        for lo in sorted(parts):
            ordered.extend(parts[lo])
        return _assemble(cell, ordered), self._walls[cell_index]


def _worker_main(conn) -> None:
    """Warm worker loop: replay ``("chunk", ...)`` messages until ``("stop",)``.

    Every chunk carries its own cell, so the worker holds no per-grid
    state; the built sites and record databases it replays sit in the
    process's site memo and stay warm across chunks, cells and grids.
    Cell-level exceptions are reported as structured ``("error", ...)``
    messages carrying the exception (:func:`_portable_error`); only a
    crash (signal, interpreter death) silently drops a chunk, which the
    parent detects via the process sentinel.
    """
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            _, chunk_id, cell, site_key, run_lo, run_hi = msg
            try:
                started = time.perf_counter()
                results = replay_runs(cell, run_lo, run_hi, site_key)
                wall_ms = (time.perf_counter() - started) * 1000.0
                conn.send(("done", chunk_id, results, wall_ms))
            except BaseException as exc:  # noqa: BLE001 — reported upstream
                conn.send(("error", chunk_id, _portable_error(exc)))
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _portable_error(exc: BaseException):
    """``exc`` itself when it crosses a pipe with its type and message
    intact, else its ``"Type: message"`` text."""
    try:
        clone = pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 — any unpicklable exception
        return _error_text(exc)
    if type(clone) is not type(exc) or str(clone) != str(exc):
        return _error_text(exc)
    return exc


class _WorkerHandle:
    """Parent-side view of one warm worker process."""

    def __init__(self, ctx, worker_id: int):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"repro-warm-worker-{worker_id}",
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        #: In-flight ``(chunk_id, Chunk)``; ``None`` when idle.
        self.chunk: Optional[Tuple[int, Chunk]] = None

    @property
    def sentinel(self) -> int:
        return self.process.sentinel

    def shutdown(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)

    def reap(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=2.0)


class WarmPoolExecutor(Executor):
    """Persistent warm worker pool with run-level parallelism."""

    name = "parallel"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        chunk_runs: Optional[int] = None,
    ):
        """``max_workers`` is the number of worker processes the pool
        runs (``None``: one per CPU); it is taken as given, so a caller
        holding a user-typed count clamps it first (the CLI does).
        ``chunk_runs`` pins the maximum runs per chunk (``None``
        auto-sizes per grid)."""
        self.workers = int(max_workers or os.cpu_count() or 1)
        self.chunk_runs = chunk_runs
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: List[_WorkerHandle] = []
        self._next_worker_id = 0
        self._closed = False
        #: Test hook: called as ``hook(worker, chunk)`` right before a
        #: chunk is dispatched — fault-injection tests SIGKILL the
        #: worker here to exercise a deterministic crash point.
        self._dispatch_hook: Optional[Callable[[_WorkerHandle, Chunk], None]] = None
        self.stats: Dict[str, int] = {
            "chunks_dispatched": 0,
            "retries": 0,
            "respawns": 0,
        }

    # ------------------------------------------------------------------
    def run(
        self,
        cells: Sequence[Cell],
        on_result: Optional[ResultCallback] = None,
    ) -> List[CellResult]:
        if self._closed:
            raise ExperimentError("executor is closed")
        if not cells:
            return []
        if self.workers <= 1:
            # A pool of one is the serial executor minus the pipes.
            return SerialExecutor().run(cells, on_result)
        try:
            return self._run_pool(cells, on_result)
        finally:
            # Late chunks of failed cells may still be computing; wait
            # for them so a later run() never reads a stale reply.
            self._drain_in_flight()

    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _WorkerHandle:
        worker = _WorkerHandle(self._ctx, self._next_worker_id)
        self._next_worker_id += 1
        self._workers.append(worker)
        return worker

    def _ensure_workers(self) -> None:
        alive = []
        for worker in self._workers:
            if worker.process.is_alive():
                worker.chunk = None
                alive.append(worker)
            else:
                worker.reap()
        self._workers = alive
        while len(self._workers) < self.workers:
            self._spawn_worker()

    def _drain_in_flight(self) -> None:
        """Absorb replies for chunks still in flight after a run ends.

        Only chunks of permanently failed cells can be outstanding when
        the scheduling loop exits; their replies are discarded here so
        they cannot be misread as answers in a later ``run()``."""
        for worker in list(self._workers):
            if worker.chunk is None:
                continue
            try:
                worker.conn.recv()
                worker.chunk = None
            except (EOFError, OSError):
                if worker in self._workers:
                    self._workers.remove(worker)
                worker.reap()

    # ------------------------------------------------------------------
    def _run_pool(
        self,
        cells: Sequence[Cell],
        on_result: Optional[ResultCallback],
    ) -> List[CellResult]:
        chunks = plan_chunks(cells, self.workers, self.chunk_runs)
        site_keys = [_site_key(cell) for cell in cells]
        queue: deque = deque(chunks)
        assembler = _CellAssembler(cells)
        results: List[Optional[CellResult]] = [None] * len(cells)
        retries: Dict[Tuple[int, int, int], int] = {}
        failed: Dict[int, str] = {}
        #: Failed cells whose worker sent a package error to re-raise.
        raised: Dict[int, ReproError] = {}
        unfinished = set(range(len(cells)))
        next_chunk_id = 0

        self._ensure_workers()

        def fail_cell(cell_index: int, reason: str) -> None:
            failed.setdefault(cell_index, reason)
            unfinished.discard(cell_index)

        def handle_crash(worker: _WorkerHandle) -> None:
            """Requeue the dead worker's chunk and spawn a replacement."""
            self.stats["respawns"] += 1
            if worker in self._workers:
                self._workers.remove(worker)
            in_flight = worker.chunk
            worker.reap()
            if in_flight is not None:
                _, chunk = in_flight
                if chunk.cell_index not in failed and chunk.cell_index in unfinished:
                    count = retries.get(chunk.key, 0) + 1
                    retries[chunk.key] = count
                    self.stats["retries"] += 1
                    if count > _MAX_RETRIES:
                        fail_cell(
                            chunk.cell_index,
                            f"worker crashed {count} times on runs "
                            f"[{chunk.run_lo}, {chunk.run_hi})",
                        )
                    else:
                        queue.appendleft(chunk)
            self._spawn_worker()

        def handle_message(worker: _WorkerHandle, msg: tuple) -> None:
            nonlocal results
            assert worker.chunk is not None
            chunk_id, chunk = worker.chunk
            worker.chunk = None
            kind = msg[0]
            if msg[1] != chunk_id:
                raise ExperimentError(
                    f"worker answered chunk {msg[1]}, expected {chunk_id}"
                )
            if kind == "done":
                _, _, chunk_results, wall_ms = msg
                if chunk.cell_index in failed:
                    return  # late chunk of a cell that already failed
                finished = assembler.add(
                    chunk.cell_index, chunk.run_lo, chunk_results, wall_ms
                )
                if finished is not None:
                    result, cell_wall_ms = finished
                    results[chunk.cell_index] = result
                    unfinished.discard(chunk.cell_index)
                    if on_result is not None:
                        on_result(chunk.cell_index, result, cell_wall_ms)
            elif kind == "error":
                error = msg[2]
                if isinstance(error, BaseException):
                    if isinstance(error, ReproError) and chunk.cell_index not in failed:
                        raised[chunk.cell_index] = error
                    error = _error_text(error)
                fail_cell(chunk.cell_index, error)
            else:
                raise ExperimentError(f"unexpected worker message {kind!r}")

        def next_chunk() -> Optional[Chunk]:
            while queue:
                chunk = queue.popleft()
                if chunk.cell_index in failed:
                    continue
                return chunk
            return None

        while unfinished:
            # Dispatch: idle workers pull the heaviest pending chunk —
            # parent-driven dispatch is work stealing by construction
            # (no work is bound to a worker before it is free).  A
            # ``while`` over a fresh idle lookup, not a ``for`` over
            # ``self._workers``: crash handling mutates the pool.
            while True:
                worker = next((w for w in self._workers if w.chunk is None), None)
                if worker is None:
                    break
                chunk = next_chunk()
                if chunk is None:
                    break
                chunk_id = next_chunk_id
                next_chunk_id += 1
                if self._dispatch_hook is not None:
                    self._dispatch_hook(worker, chunk)
                try:
                    index = chunk.cell_index
                    worker.conn.send(
                        ("chunk", chunk_id, cells[index], site_keys[index],
                         chunk.run_lo, chunk.run_hi)
                    )
                except (BrokenPipeError, OSError):
                    # The worker died under us; account the chunk as
                    # its in-flight work so the retry budget applies.
                    worker.chunk = (chunk_id, chunk)
                    handle_crash(worker)
                    continue
                worker.chunk = (chunk_id, chunk)
                self.stats["chunks_dispatched"] += 1

            busy = [worker for worker in self._workers if worker.chunk is not None]
            if not busy:
                # No in-flight work yet cells remain: every pending
                # chunk belonged to failed cells (or the queue drained
                # into permanently failed retries).
                break
            conn_of = {worker.conn: worker for worker in busy}
            sentinel_of = {worker.sentinel: worker for worker in busy}
            ready = connection.wait(list(conn_of) + list(sentinel_of))
            crashed: List[_WorkerHandle] = []
            for item in ready:
                worker = conn_of.get(item)
                if worker is not None:
                    try:
                        msg = worker.conn.recv()
                    except (EOFError, OSError):
                        if worker not in crashed:
                            crashed.append(worker)
                        continue
                    handle_message(worker, msg)
                else:
                    worker = sentinel_of[item]
                    # The pipe may still hold a finished result the
                    # worker sent before dying; drain it first.
                    if worker.chunk is not None and worker.conn.poll():
                        try:
                            handle_message(worker, worker.conn.recv())
                        except (EOFError, OSError):
                            pass
                    if worker not in crashed and not worker.process.is_alive():
                        crashed.append(worker)
            for worker in crashed:
                handle_crash(worker)

        if unfinished and not failed:
            raise ExperimentError(
                "internal scheduling error: cells "
                f"{sorted(unfinished)} neither finished nor failed"
            )
        if failed and min(failed) in raised:
            # The first failing cell in submission order — the one the
            # serial executor stops at — raised a package error.
            raise raised[min(failed)]
        if failed:
            triples = sorted(
                (index, cells[index].describe(), reason)
                for index, reason in failed.items()
            )
            summary = "; ".join(
                f"#{index} {label}: {reason}" for index, label, reason in triples
            )
            raise ExecutorError(
                f"{len(triples)} cell(s) failed permanently: {summary}",
                failed_cells=triples,
            )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.shutdown()

    def __enter__(self) -> "WarmPoolExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover — GC-order dependent
        try:
            self.close()
        except Exception:
            pass
