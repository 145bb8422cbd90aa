"""Closed-loop push-policy optimizer (beyond the paper, §7).

The paper measures six hand-crafted push deployments per site (§5) and
leaves open how far they sit from the best achievable policy.  This
package searches that space per site × network condition:

- :mod:`~repro.optimizer.space` — the policy space and site classes;
- :mod:`~repro.optimizer.candidates` — seeded populations (§5 anchors,
  their neighbors, random restarts) mined from record databases;
- :mod:`~repro.optimizer.racer` — CRN-paired successive halving (and a
  successive-elimination bandit) over an abstract arm evaluator;
- :mod:`~repro.optimizer.evaluators` — the engine-backed evaluator
  (run-granular CRN cells);
- :mod:`~repro.optimizer.table` — the content-addressed ``PolicyTable``
  artifact;
- :mod:`~repro.optimizer.report` — the oracle-gap report;
- :mod:`~repro.optimizer.optimize` — the orchestration behind
  ``python -m repro optimize``.
"""

from .candidates import (
    Candidate,
    CandidateConfig,
    CandidateSet,
    ResourceRow,
    generate_candidates,
    resource_table,
)
from .evaluators import GridRunEvaluator
from .optimize import OptimizeConfig, OptimizeResult, run_optimize
from .racer import (
    ALLOCATORS,
    ArmEvaluator,
    ArmReport,
    ArmScore,
    RaceOutcome,
    Racer,
    RacerConfig,
    RunPoint,
)
from .report import OracleGapReport, OracleGapRow
from .space import VARIANTS, PushPolicy, site_class
from .table import TABLE_FORMAT, PolicyEntry, PolicyTable

__all__ = [
    "ALLOCATORS",
    "ArmEvaluator",
    "ArmReport",
    "ArmScore",
    "Candidate",
    "CandidateConfig",
    "CandidateSet",
    "GridRunEvaluator",
    "OptimizeConfig",
    "OptimizeResult",
    "OracleGapReport",
    "OracleGapRow",
    "PolicyEntry",
    "PolicyTable",
    "PushPolicy",
    "RaceOutcome",
    "Racer",
    "RacerConfig",
    "ResourceRow",
    "RunPoint",
    "TABLE_FORMAT",
    "VARIANTS",
    "generate_candidates",
    "resource_table",
    "run_optimize",
    "site_class",
]
