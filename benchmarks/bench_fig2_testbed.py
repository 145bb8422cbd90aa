"""Fig. 2 — testbed evaluation (§4.1).

(a) per-site standard error of PLT / SpeedIndex, testbed vs Internet;
(b) Δ of as-deployed push vs no push in the testbed.

Reproduction targets: the testbed removes nearly all variability (σ an
order of magnitude below the Internet; the paper reports 95% of testbed
sites under 100 ms vs 14% in the Internet), while the push-vs-no-push
deltas still straddle zero — push helps some sites and hurts others.
"""

from conftest import write_report

from repro.experiments import Fig2Config, run_fig2
from repro.metrics import median


def test_fig2_testbed_vs_internet():
    config = Fig2Config(sites=15, runs=7)
    result = run_fig2(config)
    write_report("fig2_testbed", result.render())

    # (a) variability: testbed sigma << Internet sigma.
    assert result.sigma_fraction(result.plt_sigma_testbed, 100.0) >= 0.9
    assert result.sigma_fraction(result.plt_sigma_internet, 100.0) <= 0.3
    assert median(result.plt_sigma_internet) > 10 * median(
        [max(v, 0.01) for v in result.plt_sigma_testbed]
    )
    assert result.sigma_fraction(result.si_sigma_testbed, 50.0) >= 0.9

    # (b) deltas straddle zero: a sizeable share of sites sees no
    # benefit (paper: 49% PLT / 35% SpeedIndex) — neither 0% nor 100%.
    assert 0.15 <= result.no_benefit_plt <= 0.85
    assert 0.15 <= result.no_benefit_si <= 0.9
    assert min(result.delta_si) < 0 < max(result.delta_si)
