"""End-to-end optimizer loop: guarantee, determinism, and savings."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.experiments.ab_testing import ABTestConfig, StrategySelector
from repro.experiments.engine import ExperimentEngine, Grid
from repro.optimizer import OptimizeConfig, PolicyTable, run_optimize
from repro.sites import realworld_sites

#: The tiny cell's policy-table digest.  It moves when the candidate
#: generator, the racer or any simulated number does.
TINY_TABLE_SHA = "4887bf62b0f7e74826ddee104af62c44403ab811479479d83395c4ed87be666f"


@pytest.fixture(scope="module")
def tiny_result():
    config = OptimizeConfig(
        sites=("w3",),
        conditions=("clean_dsl", "lossy_dsl"),
        rungs=(2, 3),
        population=4,
        neighbors_per_anchor=1,
        restarts=2,
    )
    return config, run_optimize(config, engine=ExperimentEngine(cache=None))


def test_every_cell_has_an_entry_and_a_gap_row(tiny_result):
    _, result = tiny_result
    assert len(result.table.entries) == 2
    assert len(result.report.rows) == 2
    conditions = {entry.condition for entry in result.table.entries}
    assert conditions == {"clean_dsl", "lossy_dsl"}


def test_learned_policy_never_loses_to_handcrafted(tiny_result):
    """The acceptance bar: on every (site, condition) the learned
    policy is at least as good as the best §5 deployment.  Anchors are
    searched points, so the gap is ≤ 0 by construction — a positive
    gap means the promotion step regressed."""
    _, result = tiny_result
    for row in result.report.rows:
        assert row.gap_pct <= 0.0
        assert row.within_ci
    assert result.report.all_within_ci
    for entry in result.table.entries:
        assert entry.oracle_gap_pct <= 0.0


def test_halving_is_cheaper_than_exhaustive(tiny_result):
    _, result = tiny_result
    assert result.stats["evaluations"] < result.stats["exhaustive"]
    assert result.stats["saved"] > 0
    assert result.stats["race_evaluations"] <= result.stats["evaluations"]
    # The exact cost is pinned: pruning that engages later or earlier
    # moves it even when the winner does not change.
    assert (result.stats["evaluations"], result.stats["exhaustive"]) == (59, 66)


def test_halving_winner_is_the_exhaustive_argmin(tiny_result):
    """Pruning may make the search cheaper, never change its decision:
    one full-budget rung with ``eta=1`` prunes nothing, and in every
    cell it must pick the same policy, measured at the same full budget
    with the same paired effect."""
    config, result = tiny_result
    exhaustive = run_optimize(
        dataclasses.replace(config, rungs=(config.rungs[-1],), eta=1),
        engine=ExperimentEngine(cache=None),
    )
    assert result.table.entries == exhaustive.table.entries


def test_table_is_bit_reproducible(tiny_result):
    config, result = tiny_result
    again = run_optimize(config, engine=ExperimentEngine(cache=None))
    assert result.table.sha() == TINY_TABLE_SHA
    assert again.table.sha() == result.table.sha()
    assert again.table.to_json() == result.table.to_json()
    # And survives its own artifact round trip.
    assert PolicyTable.from_json(result.table.to_json()).sha() == result.table.sha()


def test_entries_carry_measured_effects(tiny_result):
    _, result = tiny_result
    for entry in result.table.entries:
        assert entry.runs == 3
        assert entry.baseline_median_si_ms > 0
        assert entry.policy.push_count >= 0
        # A pushing winner must account for its pushed bytes.
        if entry.policy.push_count and entry.source != "s5/no_push_optimized":
            assert entry.pushed_bytes >= 0


def test_render_mentions_every_site_and_the_sha(tiny_result):
    _, result = tiny_result
    text = result.render()
    assert "w3-yahoo" in text
    assert result.table.sha()[:16] in text
    assert "oracle gap" in text
    assert "search cost" in text


def test_unknown_site_key_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown site"):
        run_optimize(OptimizeConfig(sites=("w99",)))


# ----------------------------------------------------------------------
# satellite: the A/B lab phase is a single-rung race, bit-identically
# ----------------------------------------------------------------------
def test_lab_phase_reuses_historical_cell_keys():
    """The refactored lab phase must address the exact cells the
    hand-rolled loop always built: running the historical grid first
    makes every racer-built lab cell a pure cache hit."""
    spec = realworld_sites()["w3"]
    engine = ExperimentEngine(cache=None)
    selector = StrategySelector(spec, ABTestConfig(lab_runs=2), engine=engine)

    grid = Grid(name=f"abtest-lab/{spec.name}")
    for deployment in selector.candidates:
        grid.add(
            deployment.spec,
            deployment.strategy,
            runs=2,
            label=f"{spec.name}/{deployment.name}",
        )
    engine.run(grid)

    ranking = selector.lab_phase()
    report = engine.reports[-1]
    assert report.cells_done == len(selector.candidates)
    assert report.cache_hits == report.cells_done, (
        "lab cells missed the cache — the racer-backed lab phase no "
        "longer builds the historical cell keys"
    )
    assert [m.deployment for m in ranking] == sorted(
        (m.deployment for m in ranking),
        key=lambda name: next(m.median_si for m in ranking if m.deployment == name),
    )
