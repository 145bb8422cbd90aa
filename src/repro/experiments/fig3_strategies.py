"""Fig. 3: altering what to push on real-world-like corpora (§4.2).

(a) Push *all* objects in the computed order vs no push, for the
    top-100 and random-100 sets.  Paper: only 58% (top) / 45% (random)
    of sites improve in SpeedIndex.
(b) Push a limited amount n ∈ {1, 5, 10, 15, all} (random set only).
    Paper: pushing less causes fewer detriments but rarely large wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..metrics.stats import fraction_below
from ..sites.corpus import (
    RANDOM_100_PROFILE,
    TOP_100_PROFILE,
    generate_corpus,
)
from ..strategies.simple import NoPushStrategy, PushAllStrategy, PushFirstNStrategy
from .engine import ExperimentEngine, Grid
from .report import render_cdf_table, render_fraction


@dataclass
class Fig3Config:
    sites: int = 15
    runs: int = 5
    order_runs: int = 3
    amounts: Sequence[int] = (1, 5, 10, 15)
    seed: int = 2018


@dataclass
class Fig3aResult:
    delta_si_top: List[float] = field(default_factory=list)
    delta_si_random: List[float] = field(default_factory=list)
    delta_plt_top: List[float] = field(default_factory=list)
    delta_plt_random: List[float] = field(default_factory=list)

    @property
    def benefit_share_top(self) -> float:
        return fraction_below(self.delta_si_top, 0.0)

    @property
    def benefit_share_random(self) -> float:
        return fraction_below(self.delta_si_random, 0.0)

    def render(self) -> str:
        lines = ["Fig. 3a — ΔSpeedIndex, push all vs no push"]
        lines.append(
            render_cdf_table(
                {
                    "top-100 ΔSI": self.delta_si_top,
                    "random-100 ΔSI": self.delta_si_random,
                    "top-100 ΔPLT": self.delta_plt_top,
                    "random-100 ΔPLT": self.delta_plt_random,
                }
            )
        )
        lines.append(
            render_fraction(
                "top set sites improving (paper: 58%)", self.benefit_share_top
            )
        )
        lines.append(
            render_fraction(
                "random set sites improving (paper: 45%)", self.benefit_share_random
            )
        )
        return "\n".join(lines)


@dataclass
class Fig3bResult:
    #: strategy name -> per-site ΔPLT / ΔSI lists.
    delta_plt: Dict[str, List[float]] = field(default_factory=dict)
    delta_si: Dict[str, List[float]] = field(default_factory=dict)

    def detriment_share(self, name: str, threshold_ms: float = 10.0) -> float:
        """Share of sites made noticeably worse by the strategy."""
        values = self.delta_si[name]
        return sum(1 for value in values if value > threshold_ms) / len(values)

    def render(self) -> str:
        lines = ["Fig. 3b — push limited amount (random set)"]
        lines.append(render_cdf_table({f"{k} ΔPLT": v for k, v in self.delta_plt.items()}))
        lines.append(render_cdf_table({f"{k} ΔSI": v for k, v in self.delta_si.items()}))
        for name in self.delta_si:
            lines.append(
                render_fraction(
                    f"{name}: sites with detrimental ΔSI (> 10 ms)",
                    self.detriment_share(name),
                )
            )
        return "\n".join(lines)


def run_fig3a(
    config: Fig3Config = Fig3Config(),
    engine: Optional[ExperimentEngine] = None,
) -> Fig3aResult:
    engine = engine or ExperimentEngine()
    result = Fig3aResult()
    for profile, delta_si, delta_plt in (
        (TOP_100_PROFILE, result.delta_si_top, result.delta_plt_top),
        (RANDOM_100_PROFILE, result.delta_si_random, result.delta_plt_random),
    ):
        corpus = generate_corpus(profile, config.sites, seed=config.seed)
        grid = Grid(name=f"fig3a/{profile.name}")
        orders = engine.orders_for(
            [site.spec for site in corpus], runs=config.order_runs
        )
        for index, (site, order) in enumerate(zip(corpus, orders)):
            grid.add(
                site.spec, NoPushStrategy(), runs=config.runs, seed_base=index,
                label=f"{site.spec.name}/baseline",
            )
            grid.add(
                site.spec, PushAllStrategy(order=order),
                runs=config.runs, seed_base=index,
            )
        cells = engine.run(grid)
        for baseline, push in zip(cells[0::2], cells[1::2]):
            delta_plt.append(push.median_plt - baseline.median_plt)
            delta_si.append(push.median_si - baseline.median_si)
    return result


def run_fig3b(
    config: Fig3Config = Fig3Config(),
    engine: Optional[ExperimentEngine] = None,
) -> Fig3bResult:
    engine = engine or ExperimentEngine()
    corpus = generate_corpus(RANDOM_100_PROFILE, config.sites, seed=config.seed)
    result = Fig3bResult()
    names = [f"push_{n}" for n in config.amounts] + ["push_all"]
    for name in names:
        result.delta_plt[name] = []
        result.delta_si[name] = []
    grid = Grid(name="fig3b")
    orders = engine.orders_for(
        [site.spec for site in corpus], runs=config.order_runs
    )
    for index, (site, order) in enumerate(zip(corpus, orders)):
        grid.add(
            site.spec, NoPushStrategy(), runs=config.runs, seed_base=index,
            label=f"{site.spec.name}/baseline",
        )
        for n in config.amounts:
            grid.add(
                site.spec, PushFirstNStrategy(n, order=order),
                runs=config.runs, seed_base=index,
            )
        grid.add(
            site.spec, PushAllStrategy(order=order),
            runs=config.runs, seed_base=index,
        )
    cells = engine.run(grid)
    per_site = 1 + len(names)
    for site_index in range(len(corpus)):
        baseline = cells[site_index * per_site]
        for offset, name in enumerate(names, start=1):
            repeated = cells[site_index * per_site + offset]
            result.delta_plt[name].append(repeated.median_plt - baseline.median_plt)
            result.delta_si[name].append(repeated.median_si - baseline.median_si)
    return result
