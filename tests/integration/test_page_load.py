"""End-to-end page-load tests: the critical rendering path model."""

import pytest

from repro.browser.cache import BrowserCache
from repro.html import ResourceSpec, ResourceType, WebsiteSpec, build_site
from repro.replay import ReplayTestbed, replay_site
from repro.strategies import NoPushStrategy

CSS = ResourceType.CSS
JS = ResourceType.JS
IMG = ResourceType.IMAGE
FONT = ResourceType.FONT


def simple_spec(**kwargs):
    defaults = dict(
        name="page",
        primary_domain="page.example",
        html_size=30_000,
        html_visual_weight=40,
        resources=[ResourceSpec("main.css", CSS, 15_000, in_head=True, exec_ms=3)],
    )
    defaults.update(kwargs)
    return WebsiteSpec(**defaults)


def test_page_load_completes_with_metrics():
    result = replay_site(simple_spec())
    assert result.plt_ms > 0
    assert result.speed_index_ms > 0
    assert result.timeline.connect_end == pytest.approx(150.0)  # 3 RTTs
    assert result.timeline.onload is not None


def test_connect_end_is_three_rtts():
    # DNS prewarmed for the navigation origin; TCP+TLS = 3 RTTs at 50ms.
    result = replay_site(simple_spec())
    assert result.timeline.connect_end == pytest.approx(150.0)


def test_render_blocked_by_head_css():
    """First paint waits for in-head CSS; body CSS does not block."""
    blocking = replay_site(simple_spec())
    non_blocking = replay_site(
        simple_spec(
            name="page2",
            resources=[ResourceSpec("main.css", CSS, 15_000, body_fraction=0.95, exec_ms=3)],
        )
    )
    assert non_blocking.first_paint_ms < blocking.first_paint_ms


def test_sync_script_blocks_parser():
    fast = replay_site(simple_spec())
    slow = replay_site(
        simple_spec(
            name="page3",
            resources=[
                ResourceSpec("main.css", CSS, 15_000, in_head=True, exec_ms=3),
                ResourceSpec("block.js", JS, 15_000, in_head=True, exec_ms=200),
            ],
        )
    )
    # 200 ms of synchronous head JS delays both paint and load.
    assert slow.first_paint_ms > fast.first_paint_ms + 150


def test_async_script_does_not_block_paint():
    sync = replay_site(
        simple_spec(
            name="s",
            resources=[ResourceSpec("a.js", JS, 15_000, in_head=True, exec_ms=150)],
        )
    )
    async_ = replay_site(
        simple_spec(
            name="a",
            resources=[
                ResourceSpec("a.js", JS, 15_000, in_head=True, exec_ms=150, async_script=True)
            ],
        )
    )
    assert async_.first_paint_ms < sync.first_paint_ms


def test_hidden_font_discovered_after_css():
    spec = simple_spec(
        name="fonts",
        resources=[
            ResourceSpec("main.css", CSS, 15_000, in_head=True, exec_ms=3),
            ResourceSpec("f.woff2", FONT, 8_000, loaded_by="main.css", visual_weight=5),
        ],
    )
    result = replay_site(spec)
    css = result.timeline.resources[spec.url_of("main.css")]
    font = result.timeline.resources[spec.url_of("f.woff2")]
    assert font.requested_at > css.finished_at  # discovered inside the CSS


def test_js_loaded_resource_discovered_after_execution():
    spec = simple_spec(
        name="dyn",
        resources=[
            ResourceSpec("app.js", JS, 10_000, in_head=True, exec_ms=50),
            ResourceSpec("late.png", IMG, 5_000, loaded_by="app.js", visual_weight=2),
        ],
    )
    result = replay_site(spec)
    js = result.timeline.resources[spec.url_of("app.js")]
    img = result.timeline.resources[spec.url_of("late.png")]
    assert img.requested_at >= js.finished_at + 50  # after exec


def test_third_party_uses_separate_connection():
    spec = simple_spec(
        name="tp",
        resources=[
            ResourceSpec("main.css", CSS, 15_000, in_head=True),
            ResourceSpec("ad.js", JS, 5_000, domain="ads.example", body_fraction=0.5,
                         async_script=True),
        ],
        domain_ips={"ads.example": "10.0.0.2"},
    )
    result = replay_site(spec)
    assert result.connections == 2


def test_coalesced_domain_reuses_connection():
    spec = simple_spec(
        name="coal",
        coalesced_domains={"static.page.example"},
        resources=[
            ResourceSpec("main.css", CSS, 15_000, in_head=True),
            ResourceSpec("img.jpg", IMG, 5_000, domain="static.page.example",
                         body_fraction=0.5, visual_weight=2),
        ],
    )
    result = replay_site(spec)
    assert result.connections == 1  # RFC 7540 §9.1.1 coalescing


def test_cache_accelerates_repeat_view():
    spec = simple_spec(name="cached")
    cache = BrowserCache()
    testbed = ReplayTestbed(built=build_site(spec))
    first = testbed.run(cache=cache)
    warm = testbed.run(cache=cache)
    # The repeat view serves the CSS from cache: fewer bytes on the
    # wire and no later finish (the HTML itself is still fetched).
    assert warm.timeline.resources[spec.url_of("main.css")].from_cache
    assert warm.downlink_bytes < first.downlink_bytes - 10_000
    assert warm.plt_ms <= first.plt_ms + 1.0
    assert warm.first_paint_ms < first.first_paint_ms


def test_warm_reload_serves_an_image_view_from_the_cache():
    spec = simple_spec(
        name="cached-image",
        resources=[
            ResourceSpec("main.css", CSS, 15_000, in_head=True),
            ResourceSpec("hero.jpg", IMG, 40_000, body_fraction=0.2, visual_weight=5),
        ],
    )
    url = spec.url_of("hero.jpg")
    cache = BrowserCache()
    testbed = ReplayTestbed(built=build_site(spec))
    first = testbed.run(cache=cache)
    # The cache holds the received image as a view, not a copy.
    assert isinstance(cache.lookup(url), memoryview)
    assert cache.size_of(url) == 40_000
    hits = cache.hits
    warm = testbed.run(cache=cache)
    resource = warm.timeline.resources[url]
    assert resource.from_cache and not first.timeline.resources[url].from_cache
    assert resource.size == 40_000
    assert cache.hits > hits
    assert warm.downlink_bytes < first.downlink_bytes - 40_000


def test_onload_waits_for_all_statically_discovered_resources():
    spec = simple_spec(
        name="all",
        resources=[
            ResourceSpec("main.css", CSS, 15_000, in_head=True),
            ResourceSpec("big.jpg", IMG, 200_000, body_fraction=0.9, above_fold=False),
        ],
    )
    result = replay_site(spec)
    image = result.timeline.resources[spec.url_of("big.jpg")]
    assert result.timeline.onload >= image.finished_at


def test_larger_html_takes_longer():
    small = replay_site(simple_spec(name="sm", html_size=10_000))
    large = replay_site(simple_spec(name="lg", html_size=150_000))
    assert large.plt_ms > small.plt_ms + 50


def test_visual_progress_is_monotonic():
    result = replay_site(simple_spec())
    progress = result.timeline.visual_progress()
    completeness = [c for _t, c in progress]
    assert completeness == sorted(completeness)
    assert completeness[-1] == pytest.approx(1.0)


def test_delayable_request_throttle():
    resources = [ResourceSpec("main.css", CSS, 5_000, in_head=True)]
    resources += [
        ResourceSpec(f"i{n}.jpg", IMG, 3_000, body_fraction=0.1, above_fold=False)
        for n in range(25)
    ]
    spec = simple_spec(name="many", resources=resources)
    result = replay_site(spec)
    # All images completed despite the in-flight cap.
    finished = [r for r in result.timeline.resources.values() if r.finished_at]
    assert len(finished) == 27
