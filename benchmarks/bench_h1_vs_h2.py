"""Context bench: HTTP/1.1 vs HTTP/2 vs HTTP/2 + Interleaving Push.

The paper motivates H2 with H1's inefficiencies (§1) and builds on the
SPDY/H2-vs-H1 comparisons of Wang et al. and Varvello et al. (§3).
This bench reproduces that context on the synthetic sites: H2's single
multiplexed connection beats H1's six serial connections for pages of
many small objects, and the §5 interleaving strategy adds its gain on
top.
"""

from conftest import write_report

from repro.experiments.report import render_series
from repro.html import build_site
from repro.replay import ReplayTestbed
from repro.sites.synthetic import synthetic_sites
from repro.strategies import NoPushStrategy
from repro.strategies.critical import build_strategy_suite


def test_h1_vs_h2():
    def run_matrix():
        rows = []
        for name in ("s2", "s4", "s6", "s8"):
            spec = synthetic_sites()[name]
            built = build_site(spec)
            h1 = ReplayTestbed(built=built, protocol="h1").run()
            h2 = ReplayTestbed(built=built, strategy=NoPushStrategy()).run()
            suite = {d.name: d for d in build_strategy_suite(spec)}
            deployment = suite["push_critical_optimized"]
            pco = ReplayTestbed(
                built=build_site(deployment.spec), strategy=deployment.strategy
            ).run()
            rows.append(
                (
                    name,
                    round(h1.plt_ms),
                    round(h2.plt_ms),
                    round(h1.speed_index_ms),
                    round(h2.speed_index_ms),
                    round(pco.speed_index_ms),
                    h1.connections,
                    h2.connections,
                )
            )
        return rows

    rows = run_matrix()
    write_report(
        "context_h1_vs_h2",
        render_series(
            ("site", "H1 PLT", "H2 PLT", "H1 SI", "H2 SI", "H2+ileave SI",
             "H1 conns", "H2 conns"),
            rows,
            title="HTTP/1.1 vs HTTP/2 vs HTTP/2 + interleaving push",
        ),
    )
    # H2's prioritized multiplexing wins the *visual* metric everywhere
    # (Varvello et al.: benefits for 80% of sites); PLT is mixed because
    # H1's six parallel connections ramp six congestion windows at once.
    h2_si_wins = sum(1 for row in rows if row[4] <= row[3])
    assert h2_si_wins >= 3
    for row in rows:
        assert row[6] > row[7]  # H1 uses more connections than H2
