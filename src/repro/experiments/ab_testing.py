"""CDN-style strategy selection with A/B validation (§6).

The paper's discussion sketches how a CDN could operationalize the
testbed: generate candidate (interleaving) push strategies per website,
evaluate them against the replay testbed, deploy the best one, and
validate it with Real User Measurements in an A/B test against the
original deployment [19, 21, 23, 26].

:class:`StrategySelector` implements that loop:

1. **lab phase** — run every §5 deployment in the deterministic
   testbed and rank by median SpeedIndex;
2. **RUM phase** — A/B the lab winner against *no push* under noisy
   "Internet" conditions (per-run RTT/bandwidth/loss sampling, as a
   CDN's real clients would produce) and accept the deployment only if
   the confidence interval of the improvement excludes zero.

The paper's own caveat reproduces here: for many sites the lab winner's
RUM improvement drowns in client-network noise, so the selector falls
back to the original deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..html.spec import WebsiteSpec
from ..metrics.stats import paired_change, relative_change
from ..netsim.conditions import FixedConditions, InternetConditions
from ..strategies.critical import StrategyDeployment, build_strategy_suite
from .engine import ExperimentEngine, Grid


@dataclass
class ABTestConfig:
    #: Runs per candidate in the deterministic lab testbed.
    lab_runs: int = 3
    #: Runs per arm in the noisy RUM validation.
    rum_runs: int = 9
    #: Confidence level for accepting the new deployment.
    confidence: float = 0.95
    #: Minimum relative SI improvement worth deploying (paper's "minor
    #: modifications must pay off" bar).
    min_improvement_pct: float = 5.0


@dataclass
class LabMeasurement:
    deployment: str
    median_si: float
    median_plt: float
    pushed_bytes: int


@dataclass
class ABTestResult:
    site: str
    lab_ranking: List[LabMeasurement] = field(default_factory=list)
    chosen: str = "no_push"
    #: Lab improvement of the winner vs no push (%; negative = better).
    lab_delta_pct: float = 0.0
    #: RUM A/B improvement (% mean and CI half-width).
    rum_delta_pct: float = 0.0
    rum_ci_half_width: float = 0.0
    #: True when the RUM test confirmed the lab winner.
    deployed: bool = False

    def render(self) -> str:
        lines = [f"A/B strategy selection for {self.site}"]
        for measurement in self.lab_ranking:
            lines.append(
                f"  lab  {measurement.deployment:<26} SI {measurement.median_si:7.0f} ms"
                f"  pushed {measurement.pushed_bytes / 1000:7.1f} KB"
            )
        lines.append(
            f"  winner: {self.chosen} (lab Δ {self.lab_delta_pct:+.1f}%)"
        )
        lines.append(
            f"  RUM A/B: Δ {self.rum_delta_pct:+.1f}% ± {self.rum_ci_half_width:.1f}"
            f" → {'DEPLOY' if self.deployed else 'keep original'}"
        )
        return "\n".join(lines)


class StrategySelector:
    """Select and validate a push strategy for one website."""

    def __init__(
        self,
        spec: WebsiteSpec,
        config: Optional[ABTestConfig] = None,
        candidates: Optional[List[StrategyDeployment]] = None,
        engine: Optional[ExperimentEngine] = None,
    ):
        self.spec = spec
        self.config = config or ABTestConfig()
        self.candidates = candidates or build_strategy_suite(spec)
        self.engine = engine or ExperimentEngine()

    # ------------------------------------------------------------------
    def lab_phase(self) -> List[LabMeasurement]:
        """Rank every candidate in the deterministic testbed by median
        SpeedIndex: one ``lab_runs``-run cell per deployment."""
        deployments = {d.name: d for d in self.candidates}
        grid = Grid(name=f"abtest-lab/{self.spec.name}")
        for name, deployment in deployments.items():
            grid.add(
                deployment.spec,
                deployment.strategy,
                runs=self.config.lab_runs,
                label=f"{self.spec.name}/{name}",
            )
        measurements = [
            LabMeasurement(
                deployment=name,
                median_si=cell.median_si,
                median_plt=cell.median_plt,
                pushed_bytes=cell.pushed_bytes,
            )
            for name, cell in zip(deployments, self.engine.run(grid))
        ]
        measurements.sort(key=lambda m: m.median_si)
        return measurements

    def rum_phase(self, winner: StrategyDeployment) -> tuple:
        """A/B the winner against no push under Internet conditions.

        Per-run paired comparison: both arms see the same sampled
        network (the CDN would bucket comparable clients), so the noise
        that remains is genuine strategy-independent variance.
        """
        baseline_deployment = self.candidates[0]  # no_push by suite order
        # RUM clients behind CDN edges rarely see heavy loss; cap it so
        # a single pathological client does not dominate the A/B test.
        sampler = InternetConditions(max_loss=0.004)
        grid = Grid(name=f"abtest-rum/{self.spec.name}")
        for run_index in range(self.config.rum_runs):
            fixed = FixedConditions(sampler.sample(_rum_rng(self.spec.name, run_index)))
            grid.add(
                baseline_deployment.spec,
                baseline_deployment.strategy,
                runs=1,
                conditions=fixed,
                seed_base=1000 + run_index,
                label=f"rum{run_index}/A",
            )
            # Paired design: both arms share the seed so client-side
            # jitter cancels and only the strategy differs.
            grid.add(
                winner.spec,
                winner.strategy,
                runs=1,
                conditions=fixed,
                seed_base=1000 + run_index,
                label=f"rum{run_index}/B",
            )
        si = [cell.median_si for cell in self.engine.run(grid)]
        return paired_change(si[1::2], si[0::2], self.config.confidence)

    # ------------------------------------------------------------------
    def run(self) -> ABTestResult:
        result = ABTestResult(site=self.spec.name)
        result.lab_ranking = self.lab_phase()
        baseline_si = next(
            m.median_si for m in result.lab_ranking if m.deployment == "no_push"
        )
        best = result.lab_ranking[0]
        result.chosen = best.deployment
        result.lab_delta_pct = relative_change(best.median_si, baseline_si)
        if best.deployment == "no_push":
            return result

        winner = next(d for d in self.candidates if d.name == best.deployment)
        center, half_width = self.rum_phase(winner)
        result.rum_delta_pct = center
        result.rum_ci_half_width = half_width
        result.deployed = (
            center + half_width < 0
            and -center >= self.config.min_improvement_pct
        )
        return result


def _rum_rng(site_name: str, run_index: int):
    import random

    return random.Random(f"rum-{site_name}-{run_index}")
