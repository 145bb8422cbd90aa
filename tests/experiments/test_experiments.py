"""Smoke tests for every experiment module (tiny configurations).

The benchmarks run the full-size versions; these tests assert that each
experiment executes end-to-end, produces the paper's quantities, and
renders a report.
"""

import pytest

from repro.experiments import (
    ExperimentEngine,
    Fig1Config,
    Fig2Config,
    Fig3Config,
    Fig4Config,
    Fig5Config,
    Fig6Config,
    TypeAnalysisConfig,
    run_fig1,
    run_fig2,
    run_fig3a,
    run_fig3b,
    run_fig4,
    run_fig5,
    run_fig6,
    run_pushable_share,
    run_repeated,
    run_type_analysis,
)
from repro.sites.synthetic import s2_landing
from repro.strategies import NoPushStrategy


def test_run_repeated_median_and_sigma():
    repeated = run_repeated(s2_landing(), NoPushStrategy(), runs=3)
    assert len(repeated.results) == 3
    assert repeated.median_plt > 0
    assert repeated.plt_std_error >= 0.0


def test_compute_order_returns_all_resources():
    spec = s2_landing()
    order = ExperimentEngine().order_for(spec, runs=2)
    assert len(order) == len(spec.resources)
    # CSS must rank ahead of below-fold images.
    assert order[0].endswith("style.css")


def test_fig1():
    result = run_fig1(Fig1Config())
    assert result.h2_growth_factor == pytest.approx(2.0, abs=0.3)
    assert result.push_to_h2_ratio < 0.01
    assert "Fig. 1" in result.render()


def test_fig2_small():
    result = run_fig2(Fig2Config(sites=2, runs=3))
    assert len(result.plt_sigma_testbed) == 2
    assert len(result.delta_si) == 2
    # The testbed's whole point: far less variability than the Internet.
    assert max(result.plt_sigma_testbed) < min(result.plt_sigma_internet)
    assert "Fig. 2a" in result.render()


def test_fig2_runs_through_the_engine(tmp_path):
    """Four cells per site in one grid; a second run is all cache hits."""
    from repro.experiments.engine import ResultCache

    config = Fig2Config(sites=2, runs=2)
    engine = ExperimentEngine(cache=ResultCache(tmp_path))
    first = run_fig2(config, engine=engine)
    assert len(engine.last_report.records) == 8
    assert not any(record.cache_hit for record in engine.last_report.records)
    warm = ExperimentEngine(cache=ResultCache(tmp_path))
    assert run_fig2(config, engine=warm) == first
    assert all(record.cache_hit for record in warm.last_report.records)


def test_fig3a_small():
    result = run_fig3a(Fig3Config(sites=2, runs=2, order_runs=2))
    assert len(result.delta_si_top) == 2
    assert len(result.delta_si_random) == 2
    result.render()


def test_fig3b_small():
    config = Fig3Config(sites=2, runs=2, order_runs=2, amounts=(1, 5))
    result = run_fig3b(config)
    assert set(result.delta_si) == {"push_1", "push_5", "push_all"}
    result.render()


def test_pushable_share_table():
    result = run_pushable_share(sites=50)
    assert 0 < result.top_below_20 < 1
    assert result.top_below_20 > result.random_below_20
    result.render()


def test_type_analysis_small():
    """§4.2.1, sign only: pushing images worsens SpeedIndex on most
    sites (paper: 74 %) and even the best type helps a minority (24 %).
    At six sites the shares read 0.5 and 0.33.  A failure here is a
    finding for EXPERIMENTS.md "Known deviations", not a bound to
    loosen.
    """
    result = run_type_analysis(TypeAnalysisConfig(sites=6, runs=2))
    assert set(result.delta_si) == {"css", "js", "images", "css+js", "css+images"}
    assert result.images_worse_share >= 0.5
    assert result.best_type_improves_si <= 0.6
    result.render()


def test_fig4_single_site_runs():
    result = run_fig4(Fig4Config(runs=2))
    strategies = {outcome.strategy for outcome in result.outcomes}
    assert strategies == {"push_all", "custom"}
    # The custom strategy always pushes no more than push-all.
    for site in {o.site for o in result.outcomes}:
        by_strategy = result.for_site(site)
        assert by_strategy["custom"].pushed_bytes <= by_strategy["push_all"].pushed_bytes
    result.render()


def test_fig5_shape():
    result = run_fig5(Fig5Config(html_sizes_kb=(10, 90), runs=2))
    assert len(result.rows) == 2
    # Interleaving is far less sensitive to document size.
    assert result.interleaving_spread < result.no_push_spread
    last = result.rows[-1]
    assert last.interleaving_si < last.no_push_si
    assert last.push_si == pytest.approx(last.no_push_si, rel=0.15)
    result.render()


def test_fig6_two_sites():
    result = run_fig6(Fig6Config(runs=2, sites=["w1", "w17"]))
    assert [site.site for site in result.sites] == ["w1", "w17"]
    w1 = result.sites[0]
    w17 = result.sites[1]
    assert set(w1.outcomes) == {
        "no_push",
        "no_push_optimized",
        "push_all",
        "push_all_optimized",
        "push_critical",
        "push_critical_optimized",
    }
    # w1 wins ≥20% with interleaved critical push; w17 does not (§5).
    assert w1.improves_20pct
    assert not w17.improves_20pct
    result.render()
