"""Declarative experiment cells and grids.

A :class:`Cell` is the unit of measurement everywhere in the package:
one (site spec, strategy, network conditions, repetition count, seed)
tuple, replayed ``runs`` times by :func:`repro.experiments.engine.
executors.replay_runs`.  A :class:`Grid` is an ordered batch of cells
submitted to the engine together; executors may run them in any order,
but results always come back positionally aligned with ``grid.cells``.

Cells carry *data only* — no callables, no pre-built sites — so they
can be pickled to worker processes (every chunk message carries its
cell) and fingerprinted for the result cache.  Workers rebuild
:class:`BuiltSite` from the spec, which is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ...errors import ConfigError
from ...html.spec import WebsiteSpec
from ...netsim.conditions import ConditionSampler
from ...strategies.base import PushStrategy
from ...trace.store import TraceSpec
from ..runner import REDUCERS
from .fingerprint import fingerprint


@dataclass
class Cell:
    """One (site, strategy, environment) measurement configuration."""

    spec: WebsiteSpec
    strategy: Optional[PushStrategy]
    runs: int
    seed_base: int = 0
    #: Per-run network sampler; ``None`` = the fixed DSL testbed.
    conditions: Optional[ConditionSampler] = None
    #: Free-form tag for experiment-side bookkeeping (e.g. ``"s3/
    #: baseline"``).  Not part of the cache key.
    label: str = ""
    #: Opt-in trace capture: when set, every run of the cell records a
    #: wire/event trace stored out-of-band next to the result cache.
    #: Tracing is observation-only (traced results are bit-identical to
    #: untraced ones), so it is **not** part of the cache key — but the
    #: engine treats a traced cell as a cache miss until all of its
    #: per-run trace artifacts exist on disk.
    trace: Optional[TraceSpec] = None
    #: The row of :data:`repro.experiments.runner.REDUCERS` this cell's
    #: runs go through: ``"collect"`` keeps every run in a
    #: :class:`~repro.experiments.runner.RepeatedResult` (the default,
    #: required wherever timelines are consumed), ``"summary"`` folds
    #: each run to bounded scalars for population-scale grids.
    reduce: str = "collect"

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigError(f"a cell needs at least one run, got runs={self.runs}")
        if self.reduce not in REDUCERS:
            raise ConfigError(
                f"unknown result reducer {self.reduce!r} "
                f"(available: {', '.join(sorted(REDUCERS))})"
            )

    def key(self) -> str:
        """Content-addressed cache key; excludes the display label.

        The reducer changes the stored result *type*, so non-default
        reducers enter the key; the default is omitted so that every
        historical cell keeps its exact pre-reducer fingerprint.
        """
        payload = {
            "spec": self.spec,
            "strategy": self.strategy,
            "conditions": self.conditions,
            "runs": self.runs,
            "seed_base": self.seed_base,
        }
        if self.reduce != "collect":
            payload["reduce"] = self.reduce
        return fingerprint(payload)

    @property
    def strategy_name(self) -> str:
        return self.strategy.name if self.strategy is not None else "no_push"

    def describe(self) -> str:
        return self.label or f"{self.spec.name}/{self.strategy_name}"


@dataclass
class Grid:
    """An ordered batch of cells evaluated together."""

    name: str = "grid"
    cells: List[Cell] = field(default_factory=list)

    def add(
        self,
        spec: WebsiteSpec,
        strategy: Optional[PushStrategy],
        runs: int,
        seed_base: int = 0,
        conditions: Optional[ConditionSampler] = None,
        label: str = "",
        trace: Optional[TraceSpec] = None,
        reduce: str = "collect",
    ) -> int:
        """Append a cell; returns its index into the result list."""
        self.cells.append(
            Cell(
                spec=spec,
                strategy=strategy,
                runs=runs,
                seed_base=seed_base,
                conditions=conditions,
                label=label,
                trace=trace,
                reduce=reduce,
            )
        )
        return len(self.cells) - 1

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)
