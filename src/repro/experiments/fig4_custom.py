"""Fig. 4: custom strategies on synthetic sites s1–s10 (§4.3).

Per site: *push all* and a hand-tailored *custom* strategy (resources
that appear above the fold or are required to paint it), both relative
to *no push*, with 95% confidence intervals.  Reproduction targets:

* custom performs on par with push-all while pushing far fewer bytes
  (s1: ~309 KB vs ~1,057 KB);
* s5 (computation-bound) and s8 (early references) show no benefit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..metrics.stats import paired_change
from ..sites.synthetic import synthetic_sites
from ..strategies.critical import critical_urls
from ..strategies.simple import NoPushStrategy, PushAllStrategy, PushListStrategy
from .engine import ExperimentEngine, Grid
from .report import render_bar_row


@dataclass
class Fig4Config:
    runs: int = 7
    seed: int = 2018


@dataclass
class SiteStrategyOutcome:
    site: str
    strategy: str
    mean_delta_si_pct: float
    ci_half_width: float
    mean_delta_plt_pct: float
    pushed_bytes: int


@dataclass
class Fig4Result:
    outcomes: List[SiteStrategyOutcome] = field(default_factory=list)

    def for_site(self, site: str) -> Dict[str, SiteStrategyOutcome]:
        return {o.strategy: o for o in self.outcomes if o.site == site}

    def render(self) -> str:
        lines = ["Fig. 4 — custom strategies on synthetic sites (Δ vs no push)"]
        for outcome in self.outcomes:
            lines.append(
                render_bar_row(
                    f"{outcome.site} {outcome.strategy}",
                    outcome.mean_delta_si_pct,
                    outcome.ci_half_width,
                    extra=f"pushed {outcome.pushed_bytes / 1000:7.1f} KB",
                )
            )
        return "\n".join(lines)


def run_fig4(
    config: Fig4Config = Fig4Config(),
    engine: Optional[ExperimentEngine] = None,
) -> Fig4Result:
    engine = engine or ExperimentEngine()
    result = Fig4Result()
    sites = sorted(synthetic_sites().items())
    grid = Grid(name="fig4")
    for index, (name, spec) in enumerate(sites):
        grid.add(spec, NoPushStrategy(), runs=config.runs, seed_base=index)
        grid.add(spec, PushAllStrategy(), runs=config.runs, seed_base=index)
        grid.add(
            spec, PushListStrategy(critical_urls(spec), name="custom"),
            runs=config.runs, seed_base=index,
        )
    cells = engine.run(grid)
    for index, (name, _spec) in enumerate(sites):
        baseline = cells[index * 3]
        for repeated in cells[index * 3 + 1 : index * 3 + 3]:
            center, half_width = paired_change(
                repeated.si_values, baseline.si_values, level=0.95
            )
            delta_plt, _ = paired_change(repeated.plt_values, baseline.plt_values)
            result.outcomes.append(
                SiteStrategyOutcome(
                    site=name,
                    strategy=repeated.strategy,
                    mean_delta_si_pct=center,
                    ci_half_width=half_width,
                    mean_delta_plt_pct=delta_plt,
                    pushed_bytes=repeated.pushed_bytes,
                )
            )
    return result
