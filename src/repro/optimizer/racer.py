"""CRN-paired many-armed racing: successive halving and a bandit.

The racer answers "which of these K policies is best on this site ×
condition" without paying K × max_runs page loads.  It is a pure
control loop over an abstract :class:`ArmEvaluator` — the engine-backed
evaluator lives in :mod:`repro.optimizer.evaluators`, and the
Hypothesis suite drives the same loop with synthetic tables — so every
pruning decision is testable without a simulator.

**Scoring.**  Every race has a baseline arm.  An arm's score is the
mean of its *paired per-run differences*: ``(arm_si[r] - base_si[r]) /
base_si[r] × 100`` for each shared run index ``r``.  Common random
numbers make both loads of a pair draw identical network/jitter/loss
streams (:func:`repro.experiments.seeds.candidate_seed`), so strategy-
independent noise cancels in the difference and the paired CI
(:func:`repro.metrics.stats.confidence_interval`) shrinks far faster
than an unpaired one.

**Halving** (``allocator="halving"``).  Rung ``i`` measures every
active arm at ``rungs[i]`` cumulative runs, prunes arms whose paired
CI is strictly dominated (lower bound above the best arm's upper
bound — applied only once an arm has ≥ 2 paired runs), then keeps the
best ``ceil(K / eta)`` by score and promotes them to the next rung.
Pruned arms never receive another run, which is where the evaluations
saved over exhaustive evaluation come from.

**Bandit** (``allocator="bandit"``).  Successive elimination: runs are
allocated one at a time to *all* surviving arms; after each round,
CI-dominated arms are eliminated.  Stops at the same total per-arm
budget (``rungs[-1]``) or when one arm remains.

Determinism: scores depend only on (arm, run index) measurements —
CRN seeds make those independent of evaluation order — and every
selection tie-breaks on ``(score, name)``, so the outcome is invariant
under permutations of the candidate list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..metrics.stats import paired_change

#: Allocator registry; ``RacerConfig.allocator`` names an entry.
ALLOCATORS = ("halving", "bandit")


@dataclass(frozen=True)
class RunPoint:
    """One measured run of one arm."""

    si_ms: float
    plt_ms: float


class ArmEvaluator:
    """Measurement backend of a race (see the engine-backed
    implementation in :mod:`repro.optimizer.evaluators`).

    ``ensure`` guarantees each named arm has measurements for run
    indices ``[0, runs)``; ``points`` returns them in run order.
    Implementations must make a point depend only on ``(arm, run
    index)`` — never on which rung requested it — so rung geometry
    cannot change measured values.
    """

    def ensure(self, requests: Dict[str, int]) -> None:
        raise NotImplementedError

    def points(self, name: str) -> List[RunPoint]:
        raise NotImplementedError

    @property
    def evaluations(self) -> int:
        """Arm-runs scheduled so far (the pruning-savings numerator)."""
        raise NotImplementedError


@dataclass
class RacerConfig:
    #: Cumulative runs per rung (strictly increasing); the last entry
    #: is the full budget an exhaustive evaluation would pay per arm.
    rungs: Tuple[int, ...] = (2, 5)
    #: Keep ``ceil(active / eta)`` arms per rung; ``eta <= 1`` disables
    #: halving (every arm reaches the final rung).
    eta: int = 2
    #: Confidence level of the paired-difference pruning CIs.
    confidence: float = 0.95
    #: ``"halving"`` or ``"bandit"`` (successive elimination).
    allocator: str = "halving"
    #: Never prune below this many surviving arms.
    min_survivors: int = 1

    def __post_init__(self) -> None:
        if not self.rungs or list(self.rungs) != sorted(set(self.rungs)):
            raise ConfigError(f"rungs must be strictly increasing, got {self.rungs}")
        if self.rungs[0] < 1:
            raise ConfigError("rungs must start at >= 1 run")
        if self.allocator not in ALLOCATORS:
            raise ConfigError(
                f"unknown allocator {self.allocator!r} "
                f"(available: {', '.join(ALLOCATORS)})"
            )
        if self.min_survivors < 1:
            raise ConfigError("min_survivors must be >= 1")


@dataclass
class ArmScore:
    """An arm's paired score at some run count."""

    score: float
    ci_half: float
    runs: int

    @property
    def lower(self) -> float:
        return self.score - self.ci_half

    @property
    def upper(self) -> float:
        return self.score + self.ci_half


@dataclass
class ArmReport:
    name: str
    runs_used: int
    score: float
    ci_half: float
    #: Rung (halving) or round (bandit) at which the arm was pruned;
    #: ``None`` for arms that reached the final selection.
    pruned_at: Optional[int] = None


@dataclass
class RaceOutcome:
    winner: str
    #: Per-arm final standing, keyed by name.
    arms: Dict[str, ArmReport] = field(default_factory=dict)
    #: Active-arm sets entering each rung/round, in schedule order.
    rung_survivors: List[List[str]] = field(default_factory=list)
    #: Arm-runs actually scheduled (baseline included).
    evaluations: int = 0
    #: What exhaustive evaluation would schedule: every arm (baseline
    #: included) at the full per-arm budget.
    exhaustive_evaluations: int = 0
    baseline: str = ""

    @property
    def evaluations_saved(self) -> int:
        return self.exhaustive_evaluations - self.evaluations

    def ranking(self) -> List[ArmReport]:
        """Finalists first by score, then pruned arms by exit order."""
        return sorted(
            self.arms.values(),
            key=lambda arm: (
                arm.pruned_at is not None,
                -(arm.pruned_at or 0),
                arm.score,
                arm.name,
            ),
        )


class Racer:
    """Race named arms over an :class:`ArmEvaluator`."""

    def __init__(self, evaluator: ArmEvaluator, config: Optional[RacerConfig] = None):
        self.evaluator = evaluator
        self.config = config or RacerConfig()

    # ------------------------------------------------------------------
    def race(self, arms: Sequence[str], baseline: str) -> RaceOutcome:
        names = list(arms)
        if len(set(names)) != len(names):
            raise ConfigError("arm names must be unique")
        if not names:
            raise ConfigError("race needs at least one arm")
        if baseline in names:
            raise ConfigError("the baseline is paired against, not raced")
        if self.config.allocator == "bandit":
            return self._race_bandit(names, baseline)
        return self._race_halving(names, baseline)

    # ------------------------------------------------------------------
    def score(self, name: str, baseline: str, runs: int) -> ArmScore:
        """An arm's paired score over its first ``runs`` measurements."""
        points = self.evaluator.points(name)[:runs]
        if len(points) < runs:
            raise ConfigError(
                f"arm {name!r} has {len(points)} points, rung wants {runs}"
            )
        base = self.evaluator.points(baseline)[:runs]
        center, half = paired_change(
            [p.si_ms for p in points], [b.si_ms for b in base], self.config.confidence
        )
        return ArmScore(score=center, ci_half=half, runs=runs)

    def _scores(
        self, active: List[str], baseline: str, runs: int
    ) -> Dict[str, ArmScore]:
        need = {name: runs for name in active}
        need[baseline] = runs
        self.evaluator.ensure(need)
        return {name: self.score(name, baseline, runs) for name in active}

    @staticmethod
    def _dominated(scored: Dict[str, ArmScore], runs: int) -> set:
        """Arms whose paired CI sits strictly above the best arm's.

        Degenerate single-run CIs have zero width, so CI pruning only
        engages once every arm carries at least two paired runs.
        """
        if runs < 2:
            return set()
        best = min(scored.values(), key=lambda s: s.score)
        return {
            name for name, s in scored.items() if s.lower > best.upper
        }

    def _select(
        self, active: List[str], scored: Dict[str, ArmScore], runs: int
    ) -> List[str]:
        """Survivors of one halving rung, ordered by (score, name)."""
        ordered = sorted(active, key=lambda name: (scored[name].score, name))
        if self.config.eta > 1:
            keep = max(
                self.config.min_survivors,
                math.ceil(len(active) / self.config.eta),
            )
            ordered = ordered[:keep]
        dominated = self._dominated(scored, runs)
        survivors = [name for name in ordered if name not in dominated]
        if len(survivors) < self.config.min_survivors:
            survivors = ordered[: self.config.min_survivors]
        return survivors

    # ------------------------------------------------------------------
    def _race_halving(self, names: List[str], baseline: str) -> RaceOutcome:
        config = self.config
        outcome = RaceOutcome(
            winner="",
            baseline=baseline,
            exhaustive_evaluations=(len(names) + 1) * config.rungs[-1],
        )
        active = list(names)
        scored: Dict[str, ArmScore] = {}
        for rung_index, runs in enumerate(config.rungs):
            outcome.rung_survivors.append(list(active))
            scored = self._scores(active, baseline, runs)
            if rung_index == len(config.rungs) - 1:
                break
            survivors = self._select(active, scored, runs)
            for name in active:
                if name not in survivors:
                    s = scored[name]
                    outcome.arms[name] = ArmReport(
                        name=name,
                        runs_used=runs,
                        score=s.score,
                        ci_half=s.ci_half,
                        pruned_at=rung_index,
                    )
            active = survivors
        for name in active:
            s = scored[name]
            outcome.arms[name] = ArmReport(
                name=name, runs_used=s.runs, score=s.score, ci_half=s.ci_half
            )
        outcome.winner = min(active, key=lambda n: (scored[n].score, n))
        outcome.evaluations = self.evaluator.evaluations
        return outcome

    # ------------------------------------------------------------------
    def _race_bandit(self, names: List[str], baseline: str) -> RaceOutcome:
        config = self.config
        budget = config.rungs[-1]
        outcome = RaceOutcome(
            winner="",
            baseline=baseline,
            exhaustive_evaluations=(len(names) + 1) * budget,
        )
        active = list(names)
        scored: Dict[str, ArmScore] = {}
        for runs in range(1, budget + 1):
            outcome.rung_survivors.append(list(active))
            scored = self._scores(active, baseline, runs)
            if runs == budget or len(active) <= config.min_survivors:
                break
            dominated = self._dominated(scored, runs)
            survivors = [name for name in active if name not in dominated]
            if len(survivors) < config.min_survivors:
                ordered = sorted(active, key=lambda n: (scored[n].score, n))
                survivors = ordered[: config.min_survivors]
            for name in active:
                if name not in survivors:
                    s = scored[name]
                    outcome.arms[name] = ArmReport(
                        name=name,
                        runs_used=runs,
                        score=s.score,
                        ci_half=s.ci_half,
                        pruned_at=runs,
                    )
            active = survivors
        for name in active:
            s = scored[name]
            outcome.arms[name] = ArmReport(
                name=name, runs_used=s.runs, score=s.score, ci_half=s.ci_half
            )
        outcome.winner = min(active, key=lambda n: (scored[n].score, n))
        outcome.evaluations = self.evaluator.evaluations
        return outcome
