"""Fig. 7 bench: push strategies under packet loss (extension).

Goel et al. and Elkhatib et al. (§3 of the paper): loss and delay
variability change which HTTP configuration wins.  The sweep replays
the Fig. 5 page over an impaired DSL link, crossing loss rate with the
congestion controller.
"""

from conftest import write_report

from repro.experiments import Fig7Config, run_fig7


def test_fig7_lossy():
    config = Fig7Config(loss_rates=(0.0, 0.01, 0.02, 0.05), runs=3)
    result = run_fig7(config)
    write_report("fig7_lossy", result.render())

    for cc in config.congestion_controls:
        for strategy in result.strategies():
            plts = [plt for _, plt in result.curve(cc, strategy)]
            # Loss hurts: every curve degrades from clean to 5% loss.
            assert plts[-1] > plts[0], f"{cc}/{strategy}: {plts}"
    # The clean column is controller-invariant (no loss events, so the
    # controllers never act); the lossy tail is not.
    reno_tail = result.curve("reno", "no_push")[-1]
    cubic_tail = result.curve("cubic", "no_push")[-1]
    assert reno_tail != cubic_tail
