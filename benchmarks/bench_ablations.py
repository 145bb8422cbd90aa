"""Ablation benches for the design choices DESIGN.md §6 calls out.

* interleaving offset sweep — where to pause the HTML matters;
* push-order ablation — computed vs document vs reversed order;
* connection-coalescing ablation — coalescing raises the pushable share
  and removes handshakes;
* cache ablation — pushing cached objects wastes bytes (§2.1).
"""

from conftest import write_report

from repro.browser.cache import BrowserCache
from repro.experiments import ExperimentEngine, run_repeated
from repro.experiments.report import render_series
from repro.html import ResourceSpec, ResourceType, WebsiteSpec, build_site
from repro.replay import ReplayTestbed
from repro.sites.realworld import w1_wikipedia
from repro.sites.synthetic import s1_loading_screen
from repro.strategies import NoPushStrategy, PushAllStrategy, PushListStrategy
from repro.strategies.critical import build_strategy_suite, critical_urls


def test_ablation_interleave_offset():
    """Sweep the HTML pause offset for w1's critical pushes."""
    spec = w1_wikipedia()

    def sweep():
        rows = []
        suite = {d.name: d for d in build_strategy_suite(spec)}
        baseline = run_repeated(
            suite["no_push"].spec, suite["no_push"].strategy, runs=3
        ).median_si
        for offset in (1_000, 4_000, 16_000, 64_000, 200_000):
            deployments = {
                d.name: d for d in build_strategy_suite(spec, interleave_offset=offset)
            }
            deployment = deployments["push_critical_optimized"]
            cell = run_repeated(deployment.spec, deployment.strategy, runs=3)
            rows.append((offset, round(cell.median_si), round(baseline)))
        return rows

    rows = sweep()
    write_report(
        "ablation_interleave_offset",
        render_series(("offset B", "SI ms", "no-push SI ms"), rows,
                      title="Interleave-offset sweep (w1)"),
    )
    by_offset = {offset: si for offset, si, _base in rows}
    # Pausing early (a few KB in) beats pausing near the end of the HTML.
    assert by_offset[4_000] < by_offset[200_000]


def test_ablation_push_order():
    """§4.2.1: varying the push order changes the outcome."""
    spec = s1_loading_screen()

    def run_orders():
        computed = ExperimentEngine().order_for(spec, runs=3)
        orders = {
            "computed": computed,
            "reversed": list(reversed(computed)),
        }
        rows = []
        for name, order in orders.items():
            cell = run_repeated(spec, PushAllStrategy(order=order), runs=3)
            rows.append((name, round(cell.median_si)))
        baseline = run_repeated(spec, NoPushStrategy(), runs=3)
        rows.append(("no_push", round(baseline.median_si)))
        return rows

    rows = run_orders()
    write_report(
        "ablation_push_order",
        render_series(("order", "median SI ms"), rows, title="Push-order ablation (s1)"),
    )
    by_name = dict(rows)
    # A reversed order (images before render-critical CSS/JS) must not
    # beat the computed request order.
    assert by_name["computed"] <= by_name["reversed"] + 5


def _coalescing_spec(coalesced: bool) -> WebsiteSpec:
    domains = {"img.shop-static.example"} if coalesced else set()
    ips = {} if coalesced else {"img.shop-static.example": "10.0.0.44"}
    return WebsiteSpec(
        name=f"coal-{coalesced}",
        primary_domain="shop.example",
        html_size=40_000,
        html_visual_weight=25,
        resources=[
            ResourceSpec("shop.css", ResourceType.CSS, 20_000, in_head=True),
            ResourceSpec("hero.jpg", ResourceType.IMAGE, 80_000,
                         domain="img.shop-static.example",
                         body_fraction=0.1, visual_weight=20),
        ],
        coalesced_domains=domains,
        domain_ips=ips,
    )


def test_ablation_connection_coalescing():
    """Coalescing makes the CDN-hosted hero pushable and saves a handshake."""

    def run_both():
        results = {}
        for coalesced in (True, False):
            spec = _coalescing_spec(coalesced)
            testbed = ReplayTestbed(built=build_site(spec), strategy=PushAllStrategy())
            result = testbed.run()
            results[coalesced] = result
        return results

    results = run_both()
    write_report(
        "ablation_coalescing",
        render_series(
            ("coalesced", "connections", "pushed KB", "SI ms"),
            [
                (str(flag), r.connections, round(r.pushed_bytes / 1000, 1),
                 round(r.speed_index_ms))
                for flag, r in results.items()
            ],
            title="Connection-coalescing ablation",
        ),
    )
    assert results[True].connections == 1
    assert results[False].connections == 2
    # Only the coalesced deployment can push the CDN-hosted hero.
    assert results[True].pushed_bytes > results[False].pushed_bytes


def test_ablation_push_to_warm_cache():
    """§2.1: pushes of cached objects are cancelled, but late."""
    spec = WebsiteSpec(
        name="warm",
        primary_domain="warm.example",
        html_size=60_000,
        html_visual_weight=30,
        resources=[ResourceSpec("app.css", ResourceType.CSS, 40_000, in_head=True)],
    )
    built = build_site(spec)

    def run_warm():
        cache = BrowserCache()
        testbed = ReplayTestbed(built=built, strategy=PushAllStrategy())
        cold = testbed.run(cache=cache)
        warm = testbed.run(cache=cache)
        return cold, warm

    cold, warm = run_warm()
    write_report(
        "ablation_warm_cache",
        render_series(
            ("view", "pushes", "cancelled", "pushed KB", "PLT ms"),
            [
                ("cold", cold.timeline.pushes_received, cold.timeline.pushes_cancelled,
                 round(cold.pushed_bytes / 1000, 1), round(cold.plt_ms)),
                ("warm", warm.timeline.pushes_received, warm.timeline.pushes_cancelled,
                 round(warm.pushed_bytes / 1000, 1), round(warm.plt_ms)),
            ],
            title="Warm-cache push ablation",
        ),
    )
    assert cold.timeline.pushes_adopted == 1
    # On the repeat view the push is for a cached object: cancelled.
    assert warm.timeline.pushes_cancelled == 1
