"""Fig. 2: testbed evaluation (§4.1).

(a) Standard error of PLT and SpeedIndex per site over repeated runs,
    testbed vs "Internet" conditions.  Paper: in the testbed 95% (85%)
    of sites have σx̄ < 100 ms (50 ms) for PLT; over the Internet only
    14% (5%) do.
(b) Δ of push (as deployed) vs no push per site in the testbed.
    Paper: no benefit for 49% (PLT) / 35% (SpeedIndex) of sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..metrics.stats import fraction_below
from ..netsim.conditions import FixedConditions, InternetConditions
from ..sites.corpus import RANDOM_100_PROFILE, generate_corpus
from ..strategies.simple import NoPushStrategy, PushListStrategy
from .engine import ExperimentEngine, Grid
from .report import render_cdf_table, render_fraction


@dataclass
class Fig2Config:
    sites: int = 20
    runs: int = 7
    seed: int = 2018


@dataclass
class Fig2Result:
    #: Fig. 2a: per-site standard errors.
    plt_sigma_testbed: List[float] = field(default_factory=list)
    plt_sigma_internet: List[float] = field(default_factory=list)
    si_sigma_testbed: List[float] = field(default_factory=list)
    si_sigma_internet: List[float] = field(default_factory=list)
    #: Fig. 2b: per-site Δ (push - no push) of the medians, testbed.
    delta_plt: List[float] = field(default_factory=list)
    delta_si: List[float] = field(default_factory=list)
    #: Deltas within this band count as "no benefit": the paper's
    #: browser-measured timings cannot resolve single-millisecond wins.
    equivalence_band_ms: float = 5.0

    # ----- §4.1 summary statistics -----
    def sigma_fraction(self, values: List[float], threshold_ms: float) -> float:
        return fraction_below(values, threshold_ms)

    @property
    def no_benefit_plt(self) -> float:
        """Share of sites where deployed push does not improve PLT."""
        return 1.0 - fraction_below(self.delta_plt, -self.equivalence_band_ms)

    @property
    def no_benefit_si(self) -> float:
        return 1.0 - fraction_below(self.delta_si, -self.equivalence_band_ms)

    def render(self) -> str:
        lines = ["Fig. 2a — std. error σx̄ per site (CDF quantiles)"]
        lines.append(
            render_cdf_table(
                {
                    "PLT σ testbed": self.plt_sigma_testbed,
                    "PLT σ Internet": self.plt_sigma_internet,
                    "SpeedIndex σ testbed": self.si_sigma_testbed,
                    "SpeedIndex σ Internet": self.si_sigma_internet,
                }
            )
        )
        lines.append(
            render_fraction(
                "testbed sites with PLT σ < 100 ms (paper: 95%)",
                self.sigma_fraction(self.plt_sigma_testbed, 100.0),
            )
        )
        lines.append(
            render_fraction(
                "Internet sites with PLT σ < 100 ms (paper: 14%)",
                self.sigma_fraction(self.plt_sigma_internet, 100.0),
            )
        )
        lines.append("\nFig. 2b — Δ push (as deployed) vs no push, testbed")
        lines.append(
            render_cdf_table({"ΔPLT": self.delta_plt, "ΔSpeedIndex": self.delta_si})
        )
        lines.append(
            render_fraction(
                "sites with no PLT benefit from push (paper: 49%)", self.no_benefit_plt
            )
        )
        lines.append(
            render_fraction(
                "sites with no SpeedIndex benefit (paper: 35%)", self.no_benefit_si
            )
        )
        return "\n".join(lines)


def run_fig2(
    config: Fig2Config = Fig2Config(),
    engine: Optional[ExperimentEngine] = None,
) -> Fig2Result:
    engine = engine or ExperimentEngine()
    corpus = generate_corpus(RANDOM_100_PROFILE, config.sites, seed=config.seed)
    result = Fig2Result()
    grid = Grid(name="fig2")
    environments = (("tb", FixedConditions()), ("inet", InternetConditions()))
    for index, site in enumerate(corpus):
        push = PushListStrategy(site.deployed_push_urls, name="push_deployed")
        for env_name, sampler in environments:
            for strat_name, strategy in (("push", push), ("no_push", NoPushStrategy())):
                grid.add(
                    site.spec, strategy, runs=config.runs, seed_base=index,
                    conditions=sampler,
                    label=f"{site.spec.name}/{strat_name}/{env_name}",
                )
    cells = engine.run(grid)
    for push_tb, no_push_tb, push_inet, _no_push_inet in zip(
        cells[0::4], cells[1::4], cells[2::4], cells[3::4]
    ):
        result.plt_sigma_testbed.append(push_tb.plt_std_error)
        result.si_sigma_testbed.append(push_tb.si_std_error)
        result.plt_sigma_internet.append(push_inet.plt_std_error)
        result.si_sigma_internet.append(push_inet.si_std_error)
        result.delta_plt.append(push_tb.median_plt - no_push_tb.median_plt)
        result.delta_si.append(push_tb.median_si - no_push_tb.median_si)
    return result
