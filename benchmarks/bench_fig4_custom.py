"""Fig. 4 — custom strategies on synthetic sites s1–s10 (§4.3).

Reproduction targets:
* the custom (above-the-fold) strategy performs on par with push-all
  while pushing a fraction of the bytes (s1: ~300 KB vs ~1 MB);
* s5 (computation-bound) and s8 (early references) show no meaningful
  benefit from push;
* no dramatic detriments on the single-server deployments.
"""

from conftest import write_report

from repro.experiments import Fig4Config, run_fig4


def test_fig4_custom_strategies():
    config = Fig4Config(runs=7)
    result = run_fig4(config)
    write_report("fig4_custom", result.render())

    for site in (f"s{i}" for i in range(1, 11)):
        outcomes = result.for_site(site)
        push_all = outcomes["push_all"]
        custom = outcomes["custom"]
        # Custom pushes no more bytes than push-all, usually far fewer.
        assert custom.pushed_bytes <= push_all.pushed_bytes
        # Custom performs comparably to push-all (within ~25 points).
        assert abs(custom.mean_delta_si_pct - push_all.mean_delta_si_pct) < 25.0

    # s1 pushes less than half of push-all's bytes with similar effect.
    s1 = result.for_site("s1")
    assert s1["custom"].pushed_bytes < 0.55 * s1["push_all"].pushed_bytes

    # s5 (CPU-bound) and s8 (early refs): push gives no real benefit.
    for site in ("s5", "s8"):
        outcomes = result.for_site(site)
        assert outcomes["push_all"].mean_delta_si_pct > -10.0
        assert outcomes["custom"].mean_delta_si_pct > -10.0
