"""Fig. 1 — adoption of HTTP/2 and Server Push over 2017 (Alexa 1M).

Reproduction targets: H2 ≈ 120K → 240K sites (≈2x growth), Server Push
≈ 400 → 800 sites, staying orders of magnitude below H2.
"""

from conftest import write_report

from repro.experiments import Fig1Config, run_fig1


def test_fig1_adoption():
    result = run_fig1(Fig1Config())
    write_report("fig1_adoption", result.render())

    assert 100_000 <= result.scans[0].h2_sites <= 140_000
    assert 210_000 <= result.scans[-1].h2_sites <= 270_000
    assert 300 <= result.scans[0].push_sites <= 500
    assert 700 <= result.scans[-1].push_sites <= 900
    # Push stays orders of magnitude below H2 throughout.
    assert result.push_to_h2_ratio < 0.005
    assert 1.8 <= result.h2_growth_factor <= 2.2
