"""The engine-backed arm evaluator for the racer.

:class:`GridRunEvaluator` implements the
:class:`~repro.optimizer.racer.ArmEvaluator` protocol over the
experiment engine.  Every (arm, run index) is its own single-run cell
whose seed base is :func:`repro.experiments.seeds.candidate_seed` —
depending on (site, run) only, never on the policy.  Consequences, in
order of importance: all arms of one run are CRN-paired with the
baseline; promoting a survivor to more runs only *adds* cells (earlier
runs stay cache-addressed under their existing keys, whatever the rung
geometry).  Cells are scheduled **run-major** with arms grouped by site
variant, so same-spec arms sit next to each other and the executors'
small site memo builds each variant once per run instead of thrashing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..experiments.engine import ExperimentEngine, Grid
from ..experiments.engine.fingerprint import fingerprint
from ..experiments.seeds import candidate_seed
from ..html.spec import WebsiteSpec
from ..netsim.conditions import ConditionSampler, FixedConditions, NetworkConditions
from ..strategies.base import PushStrategy
from .racer import ArmEvaluator, RunPoint

#: An arm's deployment: the spec to serve and the strategy to run.
Arm = Tuple[WebsiteSpec, Optional[PushStrategy]]


class GridRunEvaluator(ArmEvaluator):
    """Run-granular CRN-paired cells (see module docstring)."""

    def __init__(
        self,
        engine: ExperimentEngine,
        site: str,
        arms: Dict[str, Arm],
        conditions: Optional[NetworkConditions] = None,
        grid_name: str = "optimize",
        reduce: str = "summary",
    ):
        self.engine = engine
        self.site = site
        self.arms = dict(arms)
        self.sampler: Optional[ConditionSampler] = (
            FixedConditions(conditions) if conditions is not None else None
        )
        self.grid_name = grid_name
        self.reduce = reduce
        self._points: Dict[str, List[RunPoint]] = {name: [] for name in arms}
        self._pushed: Dict[str, int] = {}
        self._evaluations = 0
        # Policy fingerprints (per-arm identity handed to candidate_seed)
        # and the site-variant group that keeps same-spec arms adjacent.
        self._fps = {
            name: fingerprint({"spec": spec, "strategy": strategy})
            for name, (spec, strategy) in self.arms.items()
        }
        groups: Dict[str, int] = {}
        self._group: Dict[str, int] = {}
        for name, (spec, _strategy) in self.arms.items():
            self._group[name] = groups.setdefault(fingerprint(spec), len(groups))

    # ------------------------------------------------------------------
    def ensure(self, requests: Dict[str, int]) -> None:
        unknown = set(requests) - set(self.arms)
        if unknown:
            raise KeyError(f"unknown arms: {sorted(unknown)}")
        max_runs = max(requests.values(), default=0)
        ordered = sorted(requests, key=lambda name: self._group[name])
        grid = Grid(name=self.grid_name)
        slots: List[Tuple[str, int]] = []
        for run in range(max_runs):
            for name in ordered:
                if run >= requests[name] or run < len(self._points[name]):
                    continue
                spec, strategy = self.arms[name]
                grid.add(
                    spec,
                    strategy,
                    runs=1,
                    seed_base=candidate_seed(self.site, self._fps[name], run),
                    conditions=self.sampler,
                    label=f"{self.site}/{name}/r{run}",
                    reduce=self.reduce,
                )
                slots.append((name, run))
        if not slots:
            return
        results = self.engine.run(grid)
        self._evaluations += len(slots)
        for (name, run), result in zip(slots, results):
            points = self._points[name]
            if run != len(points):  # pragma: no cover - scheduling bug guard
                raise AssertionError(
                    f"{name}: run {run} arrived with {len(points)} points"
                )
            points.append(
                RunPoint(si_ms=result.si_values[0], plt_ms=result.plt_values[0])
            )
            self._pushed.setdefault(name, result.pushed_bytes)

    def points(self, name: str) -> List[RunPoint]:
        return list(self._points[name])

    @property
    def evaluations(self) -> int:
        return self._evaluations

    def pushed_bytes(self, name: str) -> int:
        return self._pushed.get(name, 0)
