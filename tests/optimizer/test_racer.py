"""Racer invariants, driven by synthetic arm tables.

The racer is a pure control loop over an :class:`ArmEvaluator`; these
properties pin the decisions that make the optimizer trustworthy:

- with zero noise the winner is the true argmin of the arm means;
- survivor sets are nested across rungs, and a longer rung schedule
  never changes the decisions of its shared prefix (rung-geometry
  monotonicity);
- the outcome is invariant under permutations of the candidate list;
- halving never schedules more arm-runs than exhaustive evaluation,
  and strictly fewer whenever it can prune at all.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.optimizer.racer import (
    ArmEvaluator,
    Racer,
    RacerConfig,
    RunPoint,
)


class TableEvaluator(ArmEvaluator):
    """Serves pre-computed per-run values; points depend only on
    (arm, run index), as the protocol requires."""

    def __init__(self, table):
        self.table = {name: list(values) for name, values in table.items()}
        self._served = {name: 0 for name in table}
        self._evaluations = 0

    def ensure(self, requests):
        for name, runs in requests.items():
            if runs > len(self.table[name]):
                raise AssertionError(f"{name}: table too short for {runs} runs")
            grow = max(0, runs - self._served[name])
            self._served[name] += grow
            self._evaluations += grow

    def points(self, name):
        served = self._served[name]
        return [
            RunPoint(si_ms=value, plt_ms=value)
            for value in self.table[name][:served]
        ]

    @property
    def evaluations(self):
        return self._evaluations


def _race(table, baseline, **config):
    evaluator = TableEvaluator(table)
    racer = Racer(evaluator, RacerConfig(**config))
    arms = [name for name in table if name != baseline]
    return racer.race(arms, baseline=baseline)


# ----------------------------------------------------------------------
# Hypothesis strategies: a baseline stream plus per-arm offsets
# ----------------------------------------------------------------------
_BUDGET = 9

arm_tables = st.integers(2, 6).flatmap(
    lambda k: st.tuples(
        st.lists(
            st.floats(500.0, 5000.0, allow_nan=False, allow_infinity=False),
            min_size=_BUDGET,
            max_size=_BUDGET,
        ),
        st.lists(
            st.lists(
                st.floats(-200.0, 200.0, allow_nan=False, allow_infinity=False),
                min_size=_BUDGET,
                max_size=_BUDGET,
            ),
            min_size=k,
            max_size=k,
        ),
    )
)


def _build_table(drawn):
    base, offsets = drawn
    table = {"none": base}
    for index, offset_stream in enumerate(offsets):
        table[f"a{index}"] = [
            max(1.0, b + o) for b, o in zip(base, offset_stream)
        ]
    return table


@given(arm_tables)
@settings(max_examples=60, deadline=None)
def test_survivors_nested_and_never_more_than_exhaustive(drawn):
    table = _build_table(drawn)
    outcome = _race(table, baseline="none", rungs=(2, 5, _BUDGET), eta=2)
    for earlier, later in zip(outcome.rung_survivors, outcome.rung_survivors[1:]):
        assert set(later) <= set(earlier)
    assert outcome.evaluations <= outcome.exhaustive_evaluations
    assert outcome.winner in outcome.rung_survivors[-1]


@given(arm_tables)
@settings(max_examples=60, deadline=None)
def test_longer_schedule_preserves_shared_prefix_decisions(drawn):
    """Adding a later rung never changes earlier pruning decisions:
    measurements depend only on (arm, run index), so the survivor sets
    entering the shared rungs are identical."""
    table = _build_table(drawn)
    short = _race(table, baseline="none", rungs=(2, 5), eta=2)
    long = _race(table, baseline="none", rungs=(2, 5, _BUDGET), eta=2)
    assert long.rung_survivors[:2] == short.rung_survivors


@given(arm_tables, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_outcome_is_order_independent(drawn, rng):
    table = _build_table(drawn)
    arms = [name for name in table if name != "none"]
    shuffled = list(arms)
    rng.shuffle(shuffled)

    def race(order):
        evaluator = TableEvaluator(table)
        racer = Racer(evaluator, RacerConfig(rungs=(2, 5, _BUDGET), eta=2))
        return racer.race(order, baseline="none")

    first, second = race(arms), race(shuffled)
    assert first.winner == second.winner
    assert {n: r.score for n, r in first.arms.items()} == {
        n: r.score for n, r in second.arms.items()
    }


@given(
    st.integers(2, 6).flatmap(
        lambda k: st.lists(
            st.floats(500.0, 5000.0, allow_nan=False, allow_infinity=False),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_zero_noise_winner_is_true_argmin(levels):
    """Constant arms: every rung measures the exact mean, so the race
    must return the argmin no matter how aggressively it prunes."""
    table = {"none": [1000.0] * _BUDGET}
    for index, level in enumerate(levels):
        table[f"a{index}"] = [level] * _BUDGET
    best = min(range(len(levels)), key=lambda i: levels[i])
    for allocator in ("halving", "bandit"):
        outcome = _race(
            table, baseline="none", rungs=(2, 5, _BUDGET), eta=2, allocator=allocator
        )
        assert outcome.winner == f"a{best}"
        assert outcome.evaluations <= outcome.exhaustive_evaluations


# ----------------------------------------------------------------------
# deterministic unit cases
# ----------------------------------------------------------------------
def test_halving_prunes_and_saves_evaluations():
    table = {
        "none": [1000.0] * 6,
        "good": [900.0] * 6,
        "bad": [1400.0] * 6,
        "worse": [1600.0] * 6,
        "worst": [1800.0] * 6,
    }
    outcome = _race(table, baseline="none", rungs=(2, 6), eta=2)
    assert outcome.winner == "good"
    assert outcome.evaluations < outcome.exhaustive_evaluations
    assert outcome.evaluations_saved > 0
    pruned = [name for name, report in outcome.arms.items() if report.pruned_at is not None]
    assert pruned and "good" not in pruned


def test_ci_domination_prunes_clearly_worse_arm():
    # "bad" is 40% slower on every paired run; its CI lower bound sits
    # far above "good"'s upper bound at two runs already.
    table = {
        "none": [1000.0, 1100.0, 900.0, 1050.0, 1000.0],
        "good": [899.0, 991.0, 812.0, 943.0, 901.0],
        "bad": [1400.0, 1540.0, 1260.0, 1470.0, 1400.0],
    }
    outcome = _race(table, baseline="none", rungs=(2, 3, 5), eta=1)
    assert outcome.winner == "good"
    assert outcome.arms["bad"].pruned_at is not None


def test_single_run_rung_never_ci_prunes():
    """Single-run CIs are degenerate (zero width); eta=1 disables
    top-k, so nothing may be pruned at a one-run rung."""
    table = {"none": [1000.0] * 3, "a": [1500.0] * 3, "b": [900.0] * 3}
    outcome = _race(table, baseline="none", rungs=(1, 3), eta=1)
    assert set(outcome.rung_survivors[1]) == {"a", "b"}


def test_min_survivors_floor_holds():
    table = {"none": [1000.0] * 4, "a": [1500.0] * 4, "b": [1490.0] * 4}
    outcome = _race(
        table, baseline="none", rungs=(2, 4), eta=4, min_survivors=2
    )
    assert set(outcome.rung_survivors[-1]) == {"a", "b"}


def test_bandit_eliminates_dominated_arm_early():
    table = {
        "none": [1000.0, 1100.0, 900.0, 1050.0, 1000.0, 980.0],
        "good": [900.0, 989.0, 811.0, 946.0, 899.0, 883.0],
        "bad": [1400.0, 1541.0, 1259.0, 1471.0, 1399.0, 1371.0],
    }
    outcome = _race(table, baseline="none", rungs=(6,), allocator="bandit")
    assert outcome.winner == "good"
    assert outcome.arms["bad"].pruned_at is not None
    assert outcome.evaluations < outcome.exhaustive_evaluations


def test_config_validation():
    with pytest.raises(ConfigError):
        RacerConfig(rungs=(5, 2))
    with pytest.raises(ConfigError):
        RacerConfig(rungs=())
    with pytest.raises(ConfigError):
        RacerConfig(rungs=(2, 2))
    with pytest.raises(ConfigError):
        RacerConfig(allocator="genetic")
    with pytest.raises(ConfigError):
        RacerConfig(min_survivors=0)


def test_race_rejects_duplicate_and_baseline_arms():
    evaluator = TableEvaluator({"a": [1.0], "none": [1.0]})
    racer = Racer(evaluator, RacerConfig(rungs=(1,)))
    with pytest.raises(ConfigError):
        racer.race(["a", "a"], baseline="none")
    with pytest.raises(ConfigError):
        racer.race(["a", "none"], baseline="none")
    with pytest.raises(ConfigError):
        racer.race([], baseline="none")
