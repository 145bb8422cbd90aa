"""Fig. 3b — push a limited amount n ∈ {1, 5, 10, 15, all} (§4.2.1).

Reproduction target: pushing less causes fewer / smaller detriments
than pushing everything, but rarely produces large improvements.
"""

from conftest import write_report

from repro.experiments import Fig3Config, run_fig3b
from repro.metrics import mean, percentile


def test_fig3b_push_amount():
    config = Fig3Config(sites=12, runs=5, order_runs=3, amounts=(1, 5, 10, 15))
    result = run_fig3b(config)
    write_report("fig3b_amount", result.render())

    # The worst-case (p95) detriment of push_1 is no worse than
    # push_all's: limiting the amount bounds the damage.
    worst_one = percentile(result.delta_si["push_1"], 95)
    worst_all = percentile(result.delta_si["push_all"], 95)
    assert worst_one <= worst_all + 30.0
    # Median effects of small-n pushes hover near zero.
    assert abs(percentile(result.delta_si["push_1"], 50)) < 60.0
    # All five strategy columns were measured on every site.
    for name in ("push_1", "push_5", "push_10", "push_15", "push_all"):
        assert len(result.delta_si[name]) == 12
