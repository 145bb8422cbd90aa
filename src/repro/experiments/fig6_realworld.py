"""Fig. 6: the six strategies on the Table 1 real-world sites (§5).

Per site, six deployments (no push, no push optimized, push all, push
all optimized, push critical, push critical optimized) are measured as
average relative SpeedIndex change vs no push, with 99.5% confidence.

Reproduction targets:
* (a) a handful of sites — led by w1 (wikipedia), w2 (apple), and
  w16 (twitter) — improve by ≥ 20% under *push critical optimized*,
  at a fraction of push-all's bytes (w1: ~78 KB vs ~1.1 MB);
* (b) sites with a dominant head-blocking JS (w7, w8), no blocking
  code (w9), heavy images/inlined JS (w10), or massive third-party
  complexity (w17) show < 10% change or detriments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..metrics.speedindex import first_visual_change
from ..metrics.stats import mean, paired_change
from ..sites.realworld import realworld_sites
from ..strategies.critical import build_strategy_suite
from .engine import ExperimentEngine, Grid
from .report import render_bar_row


@dataclass
class Fig6Config:
    runs: int = 5
    sites: Optional[Sequence[str]] = None  # default: all w1..w20
    seed: int = 2018


@dataclass
class StrategyOutcome:
    strategy: str
    mean_delta_si_pct: float
    ci_half_width: float
    mean_delta_plt_pct: float
    pushed_bytes: int
    first_visual_change_ms: float


@dataclass
class SiteOutcome:
    site: str
    baseline_si: float
    outcomes: Dict[str, StrategyOutcome] = field(default_factory=dict)

    @property
    def critical_optimized_delta(self) -> float:
        return self.outcomes["push_critical_optimized"].mean_delta_si_pct

    @property
    def improves_20pct(self) -> bool:
        """Fig. 6a membership: ≥ 20% SI improvement."""
        return self.critical_optimized_delta <= -20.0


@dataclass
class Fig6Result:
    sites: List[SiteOutcome] = field(default_factory=list)

    @property
    def winners(self) -> List[str]:
        return [site.site for site in self.sites if site.improves_20pct]

    def render(self) -> str:
        lines = ["Fig. 6 — strategy performance on real-world sites (ΔSI vs no push)"]
        for site in self.sites:
            lines.append(f"\n{site.site} (no push SI = {site.baseline_si:.0f} ms)")
            for outcome in site.outcomes.values():
                lines.append(
                    render_bar_row(
                        f"  {outcome.strategy}",
                        outcome.mean_delta_si_pct,
                        outcome.ci_half_width,
                        extra=f"pushed {outcome.pushed_bytes / 1000:7.1f} KB",
                    )
                )
        lines.append(
            f"\nFig. 6a winners (≥20% via push critical optimized, paper: 5 sites): "
            f"{', '.join(self.winners) or 'none'}"
        )
        return "\n".join(lines)


def run_fig6(
    config: Fig6Config = Fig6Config(),
    engine: Optional[ExperimentEngine] = None,
) -> Fig6Result:
    engine = engine or ExperimentEngine()
    all_sites = realworld_sites()
    selected = config.sites or list(all_sites)
    result = Fig6Result()
    suites = {key: build_strategy_suite(all_sites[key]) for key in selected}
    grid = Grid(name="fig6")
    for index, key in enumerate(selected):
        for deployment in suites[key]:
            grid.add(
                deployment.spec,
                deployment.strategy,
                runs=config.runs,
                seed_base=index * 31,
                label=f"{key}/{deployment.name}",
            )
    cells = iter(engine.run(grid))
    for index, key in enumerate(selected):
        site_outcome: Optional[SiteOutcome] = None
        baseline = None
        for deployment in suites[key]:
            repeated = next(cells)
            if deployment.name == "no_push":
                baseline = repeated
                site_outcome = SiteOutcome(site=key, baseline_si=baseline.median_si)
                fvc = [
                    first_visual_change(r.timeline) or 0.0 for r in repeated.results
                ]
                site_outcome.outcomes["no_push"] = StrategyOutcome(
                    strategy="no_push",
                    mean_delta_si_pct=0.0,
                    ci_half_width=0.0,
                    mean_delta_plt_pct=0.0,
                    pushed_bytes=0,
                    first_visual_change_ms=mean(fvc),
                )
                continue
            center, half_width = paired_change(
                repeated.si_values, baseline.si_values, level=0.995
            )
            delta_plt, _ = paired_change(repeated.plt_values, baseline.plt_values)
            fvc = [first_visual_change(r.timeline) or 0.0 for r in repeated.results]
            site_outcome.outcomes[deployment.name] = StrategyOutcome(
                strategy=deployment.name,
                mean_delta_si_pct=center,
                ci_half_width=half_width,
                mean_delta_plt_pct=delta_plt,
                pushed_bytes=repeated.pushed_bytes,
                first_visual_change_ms=mean(fvc),
            )
        result.sites.append(site_outcome)
    return result
