"""Fig. 3a — push all objects (computed order) vs no push (§4.2.1).

Reproduction targets: only ~45–60% of sites improve in SpeedIndex
(paper: 58% top / 45% random) — push-all is *not* a safe default; the
delta distribution has both tails.
"""

from conftest import write_report

from repro.experiments import Fig3Config, run_fig3a


def test_fig3a_push_all():
    config = Fig3Config(sites=12, runs=5, order_runs=3)
    result = run_fig3a(config)
    write_report("fig3a_push_all", result.render())

    # Not everyone wins, not everyone loses.
    assert 0.2 <= result.benefit_share_top <= 0.85
    assert 0.2 <= result.benefit_share_random <= 0.85
    # Both improvements and detriments exist across the corpus.
    deltas = result.delta_si_top + result.delta_si_random
    assert min(deltas) < 0
    assert max(deltas) > 0
