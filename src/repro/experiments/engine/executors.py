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

Transport and policy are split.  :class:`WorkerTransport` owns the
processes: each worker's duplex pipe, waiting on pipes and process
sentinels together (so a crashed or SIGKILLed worker is seen at once),
reaping and replacing the dead, and the post-run drain.
:meth:`WarmPoolExecutor._run_pool` is the policy: it plans chunks,
hands the heaviest pending one to an idle worker, requeues a crashed
worker's chunk (bounded by ``_MAX_RETRIES``), assembles results, and
reports cells that fail permanently via
:class:`~repro.errors.ExecutorError` after the rest of the grid
completes — never as a raw ``BrokenProcessPool``.

Failures are as deterministic as results: a cell that raises a
:class:`~repro.errors.ReproError` in a worker is not retried, and once
the grid is done the parent raises that exception — same type, same
message — as :class:`SerialExecutor` would have.
"""

from __future__ import annotations

import contextlib
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
from ..runner import REDUCERS, CellResult, run_single
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

    Returns the per-run payloads in run order.  The cell's reducer row
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
    fold, _ = REDUCERS[cell.reduce]
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
    _, result = REDUCERS[cell.reduce]
    return result(cell.spec.name, cell.strategy_name, payloads)


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
        with contextlib.suppress(OSError):
            self.conn.send(("stop",))
        self.reap()
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)

    def reap(self) -> None:
        with contextlib.suppress(OSError):
            self.conn.close()
        self.process.join(timeout=2.0)


#: What :meth:`WorkerTransport.wait` reports: a chunk and its reply
#: (``("done", payloads, wall_ms)`` or ``("error", error)``), or a
#: chunk and ``None`` when the worker holding it died.
Event = Tuple[Optional[Chunk], Optional[tuple]]


class WorkerTransport:
    """The warm pool's processes and pipes, and none of its policy.

    Chunk ids frame the messages, so each reply is checked against the
    chunk it answers; a dead worker's in-flight chunk goes back to the
    policy as a crash event.
    """

    def __init__(self, size: int):
        self.size = size
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: List[_WorkerHandle] = []
        self._next_worker_id = 0
        self._next_chunk_id = 0

    def _spawn(self) -> None:
        self._workers.append(_WorkerHandle(self._ctx, self._next_worker_id))
        self._next_worker_id += 1

    def start(self) -> None:
        """Reap dead workers and top the pool up to ``size``."""
        alive = []
        for worker in self._workers:
            if worker.process.is_alive():
                worker.chunk = None
                alive.append(worker)
            else:
                worker.reap()
        self._workers = alive
        while len(self._workers) < self.size:
            self._spawn()

    def idle(self) -> Optional[_WorkerHandle]:
        return next((w for w in self._workers if w.chunk is None), None)

    def busy(self) -> bool:
        return any(worker.chunk is not None for worker in self._workers)

    def send(self, worker: _WorkerHandle, chunk: Chunk, payload: tuple) -> bool:
        """Hand ``chunk`` to an idle worker.  ``False``: the worker died
        under us and has been replaced; the chunk is not in flight."""
        chunk_id = self._next_chunk_id
        self._next_chunk_id += 1
        try:
            worker.conn.send(("chunk", chunk_id) + payload)
        except (BrokenPipeError, OSError):
            self._replace(worker)
            return False
        worker.chunk = (chunk_id, chunk)
        return True

    def _replace(self, worker: _WorkerHandle) -> Optional[Chunk]:
        """Reap a dead worker, spawn its replacement, and return the
        chunk it had in flight."""
        self._workers.remove(worker)
        worker.reap()
        self._spawn()
        return worker.chunk[1] if worker.chunk else None

    def _receive(self, worker: _WorkerHandle) -> Event:
        msg = worker.conn.recv()
        chunk_id, chunk = worker.chunk
        worker.chunk = None
        if msg[1] != chunk_id:
            raise ExperimentError(f"worker answered chunk {msg[1]}, expected {chunk_id}")
        return chunk, msg[:1] + msg[2:]

    def wait(self) -> List[Event]:
        """Block until a busy worker answers or dies; return the replies,
        then one event per dead worker (already replaced) carrying its
        in-flight chunk, or ``None`` if it answered before dying."""
        busy = [worker for worker in self._workers if worker.chunk is not None]
        conn_of = {worker.conn: worker for worker in busy}
        sentinel_of = {worker.sentinel: worker for worker in busy}
        events: List[Event] = []
        crashed: List[_WorkerHandle] = []
        for item in connection.wait(list(conn_of) + list(sentinel_of)):
            worker = conn_of.get(item) or sentinel_of[item]
            dead = item is not worker.conn and not worker.process.is_alive()
            # A dying worker's pipe may still hold the result it sent
            # first; read that before declaring the crash.
            if worker.chunk is not None and (item is worker.conn or worker.conn.poll()):
                try:
                    events.append(self._receive(worker))
                except (EOFError, OSError):
                    dead = True
            if dead and worker not in crashed:
                crashed.append(worker)
        return events + [(self._replace(worker), None) for worker in crashed]

    def drain(self) -> None:
        """Absorb replies for chunks still in flight after a run ends,
        so they cannot be misread as answers in a later run.  A worker
        that died instead is reaped by the next :meth:`start`."""
        for worker in self._workers:
            if worker.chunk is not None:
                with contextlib.suppress(EOFError, OSError):
                    worker.conn.recv()

    def close(self) -> None:
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.shutdown()


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
        #: The processes and pipes; fault-injection tests substitute a
        #: subclass that kills a worker as a chunk is sent to it.
        self.transport = WorkerTransport(self.workers)
        self._closed = False
        #: Crash accounting: workers respawned and chunks requeued.
        self.stats: Dict[str, int] = {"retries": 0, "respawns": 0}

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
            self.transport.drain()

    def _run_pool(
        self,
        cells: Sequence[Cell],
        on_result: Optional[ResultCallback],
    ) -> List[CellResult]:
        """The scheduling policy; :attr:`transport` moves the messages."""
        queue: deque = deque(plan_chunks(cells, self.workers, self.chunk_runs))
        site_keys = [_site_key(cell) for cell in cells]
        assembler = _CellAssembler(cells)
        results: List[Optional[CellResult]] = [None] * len(cells)
        retries: Dict[Tuple[int, int, int], int] = {}
        failed: Dict[int, str] = {}
        #: Failed cells whose worker sent a package error to re-raise.
        raised: Dict[int, ReproError] = {}
        unfinished = set(range(len(cells)))
        transport = self.transport
        transport.start()

        while unfinished:
            # Dispatch: idle workers pull the heaviest pending chunk —
            # parent-driven dispatch is work stealing by construction
            # (no work is bound to a worker before it is free).
            events: List[Event] = []
            worker = transport.idle()
            while worker is not None and queue:
                chunk = queue.popleft()
                if chunk.cell_index in failed:
                    continue
                index = chunk.cell_index
                payload = (cells[index], site_keys[index], chunk.run_lo, chunk.run_hi)
                if not transport.send(worker, chunk, payload):
                    events.append((chunk, None))
                worker = transport.idle()
            if not events:
                if not transport.busy():
                    # No in-flight work yet cells remain: every pending
                    # chunk belonged to failed cells (or the queue
                    # drained into permanently failed retries).
                    break
                events = transport.wait()
            for chunk, reply in events:
                if reply is None:
                    self.stats["respawns"] += 1
                    if chunk is None or chunk.cell_index not in unfinished:
                        continue
                    # Requeue the dead worker's chunk within the budget.
                    retries[chunk.key] = count = retries.get(chunk.key, 0) + 1
                    self.stats["retries"] += 1
                    if count <= _MAX_RETRIES:
                        queue.appendleft(chunk)
                        continue
                    reason = (
                        f"worker crashed {count} times on runs "
                        f"[{chunk.run_lo}, {chunk.run_hi})"
                    )
                elif chunk.cell_index in failed:
                    continue  # late chunk of a cell that already failed
                elif reply[0] == "done":
                    finished = assembler.add(chunk.cell_index, chunk.run_lo, *reply[1:])
                    if finished is not None:
                        result, cell_wall_ms = finished
                        results[chunk.cell_index] = result
                        unfinished.discard(chunk.cell_index)
                        if on_result is not None:
                            on_result(chunk.cell_index, result, cell_wall_ms)
                    continue
                elif reply[0] == "error":
                    reason = reply[1]
                    if isinstance(reason, BaseException):
                        if isinstance(reason, ReproError):
                            raised[chunk.cell_index] = reason
                        reason = _error_text(reason)
                else:
                    raise ExperimentError(f"unexpected worker message {reply[0]!r}")
                failed[chunk.cell_index] = reason
                unfinished.discard(chunk.cell_index)

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
        self.transport.close()

    def __enter__(self) -> "WarmPoolExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover — GC-order dependent
        try:
            self.close()
        except Exception:
            pass
