"""The closed search loop: populations → races → policy table.

Per site × network condition:

1. :func:`~repro.optimizer.candidates.generate_candidates` seeds a
   population (the §5 anchors, their neighbors, random restarts);
2. the :class:`~repro.optimizer.racer.Racer` races it against the
   ``none`` baseline over a :class:`~repro.optimizer.evaluators.
   GridRunEvaluator` — CRN-paired single-run cells;
3. the race winner and every anchor are re-measured at the full run
   budget (mostly cache hits — the racer already paid for survivor
   runs), and the better of winner-vs-anchors becomes the table entry.
   Anchors are themselves points of the searched space, so the learned
   policy is **never worse than the best hand-crafted deployment** at
   the shared seeds — the oracle-gap report records how often it is
   strictly better and by how much.

Everything downstream of the config is deterministic: populations are
seeded, seeds derive from (site, run), and the engine's cells are
content-addressed — so ``run_optimize`` with one config reproduces the
same :class:`~repro.optimizer.table.PolicyTable` bit for bit
(``table_sha`` and all), which the pinned golden optimizer cell checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..experiments.engine import ExperimentEngine
from ..html.spec import WebsiteSpec
from ..metrics.stats import median
from ..netsim.conditions import profile
from ..strategies.simple import NoPushStrategy
from .candidates import CandidateConfig, CandidateSet, generate_candidates
from .evaluators import GridRunEvaluator
from .racer import Racer, RacerConfig
from .report import OracleGapReport, OracleGapRow
from .space import site_class
from .table import PolicyEntry, PolicyTable


@dataclass(frozen=True)
class OptimizeConfig:
    """One optimizer run; every field enters the table's meta block."""

    #: Site keys (``w1``..``w20``); ``None`` = the full corpus.
    sites: Optional[Tuple[str, ...]] = None
    #: Named condition profiles to search under — the paper's clean DSL
    #: testbed plus the bursty-loss line by default (verdicts flip with
    #: conditions, so the table is keyed by them).
    conditions: Tuple[str, ...] = ("clean_dsl", "lossy_dsl")
    #: Cumulative runs per halving rung; the last entry is the full
    #: per-arm budget.
    rungs: Tuple[int, ...] = (2, 5)
    eta: int = 2
    confidence: float = 0.95
    allocator: str = "halving"
    #: Non-anchor population cap per site (anchors always race).
    population: int = 10
    neighbors_per_anchor: int = 2
    restarts: int = 4
    seed: int = 2018

    @classmethod
    def quick(cls) -> "OptimizeConfig":
        """CI-sized: two small sites, tiny population, short rungs."""
        return cls(
            sites=("w3", "w9"),
            rungs=(2, 3),
            population=6,
            neighbors_per_anchor=1,
            restarts=2,
        )

    def meta(self) -> Dict[str, object]:
        return {
            "sites": list(self.sites) if self.sites else "w1-w20",
            "conditions": list(self.conditions),
            "rungs": list(self.rungs),
            "eta": self.eta,
            "confidence": self.confidence,
            "allocator": self.allocator,
            "population": self.population,
            "neighbors_per_anchor": self.neighbors_per_anchor,
            "restarts": self.restarts,
            "seed": self.seed,
        }


@dataclass
class OptimizeResult:
    table: PolicyTable
    report: OracleGapReport
    #: Search-cost accounting: arm-runs scheduled vs exhaustive.
    stats: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["policy table (site × condition → learned policy)"]
        for entry in self.table.entries:
            offset = (
                f"@{entry.policy.interleave_offset}"
                if entry.policy.interleaving
                else "-"
            )
            lines.append(
                f"  {entry.site:<12} {entry.site_class:<16} {entry.condition:<12} "
                f"ΔSI {entry.delta_si_pct:+7.2f}% ± {entry.ci_half_width:5.2f}  "
                f"Δp50 {entry.delta_p50_plt_pct:+7.2f}%  "
                f"push {entry.policy.push_count:>2} ({entry.policy.variant}, {offset})  "
                f"{entry.source}"
            )
        lines.append(f"  table_sha {self.table.sha()[:16]}")
        lines.append("")
        lines.append(self.report.render())
        lines.append("")
        saved = self.stats.get("saved", 0)
        lines.append(
            "search cost: "
            f"{self.stats.get('evaluations', 0):.0f} arm-runs scheduled vs "
            f"{self.stats.get('exhaustive', 0):.0f} exhaustive "
            f"({saved:.0f} saved, {self.stats.get('saved_pct', 0.0):.1f}%)"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "table": self.table.to_json(),
            "oracle_gap": self.report.to_json(),
            "stats": self.stats,
        }


def _resolve_specs(config: OptimizeConfig) -> List[WebsiteSpec]:
    from ..sites import realworld_sites

    sites = realworld_sites()
    keys = config.sites if config.sites is not None else tuple(sites)
    specs = []
    for key in keys:
        if key not in sites:
            raise ConfigError(
                f"unknown site {key!r}; the optimizer searches the "
                f"real-world corpus ({', '.join(sites)})"
            )
        specs.append(sites[key])
    return specs


def run_optimize(
    config: Optional[OptimizeConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    specs: Optional[Sequence[WebsiteSpec]] = None,
) -> OptimizeResult:
    """Search every site × condition of the config (module docstring).

    ``specs`` overrides site-key resolution with explicit website specs
    (the golden guard injects corpus-generated sites this way).
    """
    config = config or OptimizeConfig()
    engine = engine or ExperimentEngine()
    specs = list(specs) if specs is not None else _resolve_specs(config)

    table = PolicyTable(meta=config.meta())
    report = OracleGapReport()
    totals = {
        "evaluations": 0,
        "race_evaluations": 0,
        "exhaustive": 0,
    }

    candidate_config = CandidateConfig(
        population=config.population,
        neighbors_per_anchor=config.neighbors_per_anchor,
        restarts=config.restarts,
        seed=config.seed,
    )
    racer_config = RacerConfig(
        rungs=config.rungs,
        eta=config.eta,
        confidence=config.confidence,
        allocator=config.allocator,
    )

    for spec in specs:
        population = generate_candidates(spec, candidate_config)
        sclass = site_class(spec)
        for condition_name in config.conditions:
            entry, row, cost = _search_cell(
                engine, population, sclass, condition_name, racer_config
            )
            table.add(entry)
            report.add(row)
            for key, value in cost.items():
                totals[key] += value

    scheduled = totals["evaluations"]
    exhaustive = totals["exhaustive"]
    stats = {
        "evaluations": scheduled,
        "race_evaluations": totals["race_evaluations"],
        "exhaustive": exhaustive,
        "saved": exhaustive - scheduled,
        "saved_pct": (exhaustive - scheduled) / exhaustive * 100.0 if exhaustive else 0.0,
    }
    return OptimizeResult(table=table, report=report, stats=stats)


def _search_cell(
    engine: ExperimentEngine,
    population: CandidateSet,
    sclass: str,
    condition_name: str,
    racer_config: RacerConfig,
) -> Tuple[PolicyEntry, OracleGapRow, Dict[str, int]]:
    """Race one site × condition; returns (table entry, gap row, cost)."""
    conditions = profile(condition_name)
    arms = {"none": (population.spec, NoPushStrategy())}
    by_name = {}
    for candidate in population.candidates:
        arms[candidate.name] = (
            population.spec_for(candidate.policy),
            candidate.policy.as_strategy(),
        )
        by_name[candidate.name] = candidate
    evaluator = GridRunEvaluator(
        engine,
        site=population.site,
        arms=arms,
        conditions=conditions,
        grid_name=f"optimize/{population.site}/{condition_name}",
    )
    racer = Racer(evaluator, racer_config)
    outcome = racer.race(
        [candidate.name for candidate in population.candidates], baseline="none"
    )
    race_evaluations = evaluator.evaluations

    # Full-budget re-measure of the winner and every anchor at the
    # shared CRN seeds: the oracle-gap comparison and the table entry
    # both report max-budget paired effects.
    budget = racer_config.rungs[-1]
    finalists = sorted(set(population.anchors) | {outcome.winner})
    evaluator.ensure({name: budget for name in finalists + ["none"]})
    scores = {name: racer.score(name, "none", budget) for name in finalists}

    # Anchors are searched points too, so the learned policy is the
    # best of (race winner, anchors) — never worse than hand-crafted.
    learned = min(finalists, key=lambda name: (scores[name].score, name))
    best_anchor = min(
        population.anchors, key=lambda name: (scores[name].score, name)
    )

    base_points = evaluator.points("none")[:budget]
    learned_points = evaluator.points(learned)[:budget]
    base_p50_plt = median([p.plt_ms for p in base_points])
    learned_p50_plt = median([p.plt_ms for p in learned_points])
    learned_score = scores[learned]

    entry = PolicyEntry(
        site=population.site,
        site_class=sclass,
        condition=condition_name,
        policy=by_name[learned].policy,
        source=learned,
        runs=budget,
        baseline_median_si_ms=median([p.si_ms for p in base_points]),
        delta_si_pct=learned_score.score,
        ci_half_width=learned_score.ci_half,
        delta_p50_plt_pct=(learned_p50_plt - base_p50_plt) / base_p50_plt * 100.0,
        pushed_bytes=evaluator.pushed_bytes(learned),
        oracle_gap_pct=learned_score.score - scores[best_anchor].score,
    )
    row = OracleGapRow(
        site=population.site,
        site_class=sclass,
        condition=condition_name,
        learned=learned,
        learned_delta_pct=learned_score.score,
        handcrafted=best_anchor,
        handcrafted_delta_pct=scores[best_anchor].score,
        ci_half_width=learned_score.ci_half,
    )
    cost = {
        "evaluations": evaluator.evaluations,
        "race_evaluations": race_evaluations,
        "exhaustive": outcome.exhaustive_evaluations,
    }
    return entry, row, cost
