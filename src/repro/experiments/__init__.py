"""Experiments reproducing every table and figure of the paper."""

from .ab_testing import ABTestConfig, ABTestResult, StrategySelector
from .engine import (
    Cell,
    ExperimentEngine,
    Grid,
    ResultCache,
    SerialExecutor,
)
from .fig1_adoption import Fig1Config, Fig1Result, run_fig1
from .fig2_testbed import Fig2Config, Fig2Result, run_fig2
from .fig3_strategies import Fig3aResult, Fig3bResult, Fig3Config, run_fig3a, run_fig3b
from .fig4_custom import Fig4Config, Fig4Result, run_fig4
from .fig5_interleaving import Fig5Config, Fig5Result, make_test_site, run_fig5
from .fig6_realworld import Fig6Config, Fig6Result, run_fig6
from .fig7_lossy import Fig7Config, Fig7Result, Fig7Row, run_fig7
from .fig8_mechanisms import (
    Fig8Config,
    Fig8Result,
    Fig8Row,
    make_mechanism_site,
    run_fig8,
)
from .network_sweep import SweepCell, SweepConfig, SweepResult, run_network_sweep
from .reducers import CellSummary, RunStats
from .runner import (
    PAPER_RUNS,
    CellResult,
    RepeatedResult,
    run_repeated,
)
from .tables import (
    PushableShareResult,
    TypeAnalysisConfig,
    TypeAnalysisResult,
    run_pushable_share,
    run_type_analysis,
)

__all__ = [
    "ABTestConfig",
    "ABTestResult",
    "Cell",
    "CellResult",
    "CellSummary",
    "ExperimentEngine",
    "Grid",
    "ResultCache",
    "SerialExecutor",
    "Fig1Config",
    "Fig1Result",
    "Fig2Config",
    "Fig2Result",
    "Fig3Config",
    "Fig3aResult",
    "Fig3bResult",
    "Fig4Config",
    "Fig4Result",
    "Fig5Config",
    "Fig5Result",
    "Fig6Config",
    "Fig6Result",
    "Fig7Config",
    "Fig7Result",
    "Fig7Row",
    "Fig8Config",
    "Fig8Result",
    "Fig8Row",
    "StrategySelector",
    "SweepCell",
    "SweepConfig",
    "SweepResult",
    "run_network_sweep",
    "PAPER_RUNS",
    "PushableShareResult",
    "RepeatedResult",
    "RunStats",
    "TypeAnalysisConfig",
    "TypeAnalysisResult",
    "make_mechanism_site",
    "make_test_site",
    "run_fig1",
    "run_fig2",
    "run_fig3a",
    "run_fig3b",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_pushable_share",
    "run_repeated",
    "run_type_analysis",
]
