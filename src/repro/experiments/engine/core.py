"""The experiment engine: grids in, positionally aligned results out.

``ExperimentEngine`` is the single execution substrate behind every
figure, table, and CLI command: experiments *declare* their cells as a
:class:`Grid` and submit it; the engine consults the two-tier result
cache (in-process LRU, then the content-addressed disk store), fans the
remaining cells out through the configured executor, stores fresh
results, and keeps structured per-cell records plus a progress/timing
report.

Determinism contract: a cell's result depends only on the cell itself
(spec, strategy, conditions, runs, seed base) — never on the executor,
submission order, or cache state.  The serial executor with a cold
cache therefore reproduces the historical hand-rolled loops bit for
bit, and the parallel executor and warm caches are pure speed-ups.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ...html.spec import WebsiteSpec
from ..runner import CellResult
from .cache import MemoryResultCache, ResultCache, default_cache_dir
from .cell import Cell, Grid
from .executors import Executor, SerialExecutor
from .fingerprint import fingerprint
from .records import CellRecord, ProgressReport


class ExperimentEngine:
    """Schedule grids of experiment cells over an executor and a cache."""

    def __init__(
        self,
        executor: Optional[Executor] = None,
        cache: Optional[ResultCache] = None,
        force: bool = False,
    ):
        """``cache=None`` falls back to ``$REPRO_CACHE_DIR`` (no disk
        caching when unset).  The in-process LRU tier is always on, so
        duplicate cells across the grids of one process run once even
        without a cache directory.
        ``force=True`` ignores both cache tiers but still stores fresh
        results."""
        self.executor = executor or SerialExecutor()
        if cache is None:
            root = default_cache_dir()
            cache = ResultCache(root) if root is not None else None
        self.cache = cache
        self.memory = MemoryResultCache()
        self.force = force
        self.reports: List[ProgressReport] = []
        #: In-memory memo of §4.2 push orders shared across experiments.
        self._orders: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    def run(self, grid: Grid) -> List[CellResult]:
        """Evaluate every cell; results align with ``grid.cells``."""
        report = ProgressReport(grid_name=grid.name, executor=self.executor.name)
        results: List[Optional[CellResult]] = [None] * len(grid.cells)
        keys = [cell.key() for cell in grid.cells]

        pending: List[Tuple[int, Cell]] = []
        for index, cell in enumerate(grid.cells):
            cached, tier = self._lookup(keys[index])
            if cached is not None and not self._traces_satisfied(cell, keys[index]):
                # Tracing is excluded from the cache key (traced results
                # are bit-identical), so a cached result may predate the
                # trace request; replay the cell to materialize the
                # missing per-run artifacts.
                cached = None
            if cached is not None:
                results[index] = cached
                report.records.append(
                    self._record(
                        index, cell, keys[index], cached, 0.0, hit=True, tier=tier
                    )
                )
            else:
                pending.append((index, cell))

        def on_result(batch_index: int, result: CellResult, wall_ms: float) -> None:
            index, cell = pending[batch_index]
            results[index] = result
            self.memory.put(keys[index], result)
            if self.cache is not None:
                self.cache.store(keys[index], result)
            report.records.append(
                self._record(index, cell, keys[index], result, wall_ms, hit=False)
            )

        try:
            self.executor.run([cell for _, cell in pending], on_result)
        finally:
            # Cells finished before an executor failure keep their
            # results, records, and cache entries.
            report.finish()
            report.records.sort(key=lambda record: record.index)
            if self.cache is not None:
                self.cache.append_records(
                    [record.to_json() for record in report.records]
                )
            self.reports.append(report)
        return results  # type: ignore[return-value]

    def run_cell(self, cell: Cell) -> CellResult:
        """Evaluate a single cell through the cache + executor path.

        Same-spec cells share one built site and record database via
        the executors' site memo (``executors._memoized_site``), so
        repeated ``run_cell`` calls do not rebuild the site.
        """
        return self.run(Grid(name=cell.describe(), cells=[cell]))[0]

    @staticmethod
    def _traces_satisfied(cell: Cell, key: str) -> bool:
        """True when the cell asks for no traces, or all already exist."""
        if cell.trace is None:
            return True
        from ...trace.store import TraceStore

        return TraceStore(cell.trace.dir).has_all(key, cell.runs)

    def _lookup(self, key: str) -> Tuple[Optional[CellResult], str]:
        """Probe the memory tier, then disk; promote disk hits."""
        if self.force:
            return None, ""
        cached = self.memory.get(key)
        if cached is not None:
            return cached, "memory"
        if self.cache is not None:
            cached = self.cache.load(key)
            if cached is not None:
                self.memory.put(key, cached)
                return cached, "disk"
        return None, ""

    # ------------------------------------------------------------------
    def order_for(self, spec: WebsiteSpec, runs: int = 5) -> List[str]:
        """§4.2 push-order computation, memoized across experiments."""
        return self.orders_for([spec], runs=runs)[0]

    def orders_for(
        self, specs: Sequence[WebsiteSpec], runs: int = 5
    ) -> List[List[str]]:
        """Batched §4.2 push-order computation, one grid submission.

        Orders derive from deterministic no-push loads, so they are
        memoized in-memory (shared by every experiment on this engine)
        and, when a cache is configured, on disk keyed by the
        (spec, runs) fingerprint.  All uncached specs are submitted as
        a **single grid**, so a parallel executor computes the order
        loads concurrently instead of one site at a time.
        """
        from ...html.builder import build_site
        from ...strategies.order import computed_push_order
        from ...strategies.simple import NoPushStrategy

        keys = [
            fingerprint({"order_spec": spec, "order_runs": runs}) for spec in specs
        ]
        missing: List[Tuple[str, WebsiteSpec]] = []
        seen = set()
        for spec, key in zip(specs, keys):
            if key in self._orders or key in seen:
                continue
            if self.cache is not None and not self.force:
                stored = self.cache.load_order(key)
                if stored is not None:
                    self._orders[key] = stored
                    continue
            seen.add(key)
            missing.append((key, spec))
        if missing:
            grid = Grid(
                name="push-orders",
                cells=[
                    Cell(
                        spec=spec,
                        strategy=NoPushStrategy(),
                        runs=runs,
                        label=f"{spec.name}/order",
                    )
                    for _, spec in missing
                ],
            )
            for (key, spec), repeated in zip(missing, self.run(grid)):
                timelines = [result.timeline for result in repeated.results]
                order = computed_push_order(timelines, build_site(spec).html_url)
                self._orders[key] = order
                if self.cache is not None:
                    self.cache.store_order(key, order)
        return [list(self._orders[key]) for key in keys]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down pooled executor resources; the engine stays usable
        for cache lookups but will not execute further cells."""
        self.executor.close()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def last_report(self) -> Optional[ProgressReport]:
        return self.reports[-1] if self.reports else None

    def render_reports(self) -> str:
        return "\n".join(report.render() for report in self.reports)

    def _record(
        self,
        index: int,
        cell: Cell,
        key: str,
        result: CellResult,
        wall_ms: float,
        hit: bool,
        tier: str = "",
    ) -> CellRecord:
        return CellRecord(
            index=index,
            key=key,
            site=result.site,
            strategy=result.strategy,
            label=cell.label,
            runs=cell.runs,
            seed_base=cell.seed_base,
            executor="cache" if hit else self.executor.name,
            cache_hit=hit,
            cache_tier=tier,
            wall_ms=wall_ms,
            median_plt_ms=result.median_plt,
            median_si_ms=result.median_si,
        )
