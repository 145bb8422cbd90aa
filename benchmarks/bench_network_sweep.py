"""Context bench: push effectiveness vs network characteristics.

Rosen et al. / Wang et al. (§3 of the paper): push saves round trips,
so gains grow with RTT; bandwidth mainly scales the absolute numbers.
"""

from conftest import write_report

from repro.experiments import SweepConfig, run_network_sweep


def test_network_sweep():
    config = SweepConfig(rtts_ms=(25, 50, 100, 200), bandwidths_mbit=(4, 16, 64), runs=3)
    result = run_network_sweep(config)
    write_report("context_network_sweep", result.render())

    for bandwidth in (4, 16, 64):
        gains = result.gains_by_rtt(bandwidth)
        # The absolute interleaving gain grows with RTT (round trips saved).
        assert gains[-1] > gains[0], f"bandwidth {bandwidth}: {gains}"
        # Push never loses on this CSS-gated page.
        assert min(gains) > 0
