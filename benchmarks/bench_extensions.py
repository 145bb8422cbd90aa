"""Benches for the paper-adjacent extensions.

* **Cache digests** (draft-ietf-httpbis-cache-digest, the paper's §2.1
  citation [29]) — eliminate wasted pushes on repeat views;
* **Preload hints** (MetaPush [20] / Vroom [32]) — server-aided
  discovery beats push when the critical content is third-party;
* **CDN A/B selection** (§6) — deploy interleaving where it survives
  RUM noise, keep the original elsewhere.
"""

from conftest import write_report

from repro.browser.cache import BrowserCache
from repro.browser.engine import BrowserConfig
from repro.experiments.ab_testing import ABTestConfig, StrategySelector
from repro.experiments.report import render_series
from repro.html import ResourceSpec, ResourceType, WebsiteSpec, build_site
from repro.replay import ReplayTestbed
from repro.sites.realworld import w1_wikipedia, w17_cnn
from repro.strategies import NoPushStrategy, PushAllStrategy
from repro.strategies.hints import HintAndPushStrategy, PreloadHintStrategy


def test_cache_digest_eliminates_wasted_pushes():
    spec = WebsiteSpec(
        name="digest-bench",
        primary_domain="db.example",
        html_size=40_000,
        html_visual_weight=30,
        resources=[
            ResourceSpec("a.css", ResourceType.CSS, 25_000, in_head=True),
            ResourceSpec("b.js", ResourceType.JS, 35_000, in_head=True, exec_ms=10),
        ],
    )
    built = build_site(spec)

    def run_matrix():
        rows = []
        for send_digest in (False, True):
            config = BrowserConfig(send_cache_digest=send_digest)
            testbed = ReplayTestbed(
                built=built, strategy=PushAllStrategy(), browser_config=config
            )
            cache = BrowserCache()
            testbed.run(cache=cache)
            warm = testbed.run(cache=cache)
            rows.append(
                (
                    "digest" if send_digest else "no digest",
                    warm.timeline.pushes_received,
                    warm.timeline.pushes_cancelled,
                    warm.downlink_bytes,
                )
            )
        return rows

    rows = run_matrix()
    write_report(
        "ext_cache_digest",
        render_series(
            ("client", "pushes", "cancelled", "downlink B"),
            rows,
            title="Repeat view with and without cache digests",
        ),
    )
    without, with_digest = rows
    assert without[1] == 2 and without[2] == 2   # pushed then cancelled
    assert with_digest[1] == 0                   # never pushed
    assert with_digest[3] < without[3]           # fewer bytes on the wire


def test_preload_hints_vs_push_for_third_party():
    spec = WebsiteSpec(
        name="hints-bench",
        primary_domain="origin.example",
        html_size=100_000,
        html_visual_weight=20,
        atf_text_fraction=0.25,
        resources=[
            ResourceSpec("main.css", ResourceType.CSS, 18_000, in_head=True, exec_ms=4),
            ResourceSpec("hero.jpg", ResourceType.IMAGE, 150_000,
                         domain="cdn.partner.example",
                         body_fraction=0.7, visual_weight=30),
        ],
        domain_ips={"cdn.partner.example": "10.0.0.88"},
    )
    built = build_site(spec)

    def run_matrix():
        rows = []
        for strategy in (NoPushStrategy(), PushAllStrategy(),
                         PreloadHintStrategy(), HintAndPushStrategy()):
            result = ReplayTestbed(built=built, strategy=strategy).run()
            rows.append(
                (strategy.name, round(result.speed_index_ms),
                 round(result.pushed_bytes / 1000, 1))
            )
        return rows

    rows = run_matrix()
    write_report(
        "ext_preload_hints",
        render_series(("strategy", "SI ms", "pushed KB"), rows,
                      title="Third-party hero: hints vs push"),
    )
    by_name = {name: si for name, si, _kb in rows}
    # Push cannot touch the third-party hero; hints can.
    assert by_name["preload_hints"] < by_name["no_push"] - 20
    assert by_name["preload_hints"] < by_name["push_all"] - 20
    assert by_name["hint_and_push"] <= by_name["preload_hints"] + 20


def test_cdn_ab_selection():
    def run_selection():
        config = ABTestConfig(lab_runs=3, rum_runs=7)
        return {
            "w1": StrategySelector(w1_wikipedia(), config).run(),
            "w17": StrategySelector(w17_cnn(), config).run(),
        }

    results = run_selection()
    write_report(
        "ext_ab_selection",
        results["w1"].render() + "\n\n" + results["w17"].render(),
    )
    # w1's interleaving win survives RUM noise.
    assert results["w1"].deployed
    assert results["w1"].chosen.endswith("optimized")
    # w17 must never receive a *push* deployment; its lab winner is the
    # critical-CSS-only variant (the paper's own −14.9% for this site).
    if results["w17"].deployed:
        assert not results["w17"].chosen.startswith("push_")
