"""Focused unit tests for browser-engine behaviours.

These exercise specific mechanisms of the page-load engine through the
full testbed (the engine's inputs are network events, so driving it via
a real replay is both simpler and more honest than mocking).
"""

import pytest

from repro.browser.engine import BrowserConfig
from repro.html import ResourceSpec, ResourceType, WebsiteSpec, build_site
from repro.replay import ReplayTestbed, replay_site
from repro.strategies import PushAllStrategy, PushListStrategy

CSS = ResourceType.CSS
JS = ResourceType.JS
IMG = ResourceType.IMAGE


def base_spec(**kwargs):
    defaults = dict(
        name="engine",
        primary_domain="e.example",
        html_size=25_000,
        html_visual_weight=30,
    )
    defaults.update(kwargs)
    return WebsiteSpec(**defaults)


class TestDiscovery:
    def test_preload_scanner_requests_while_parser_blocked(self):
        """Resources after a blocking script are fetched before it runs."""
        spec = base_spec(
            resources=[
                ResourceSpec("block.js", JS, 10_000, in_head=True, exec_ms=300),
                ResourceSpec("late.jpg", IMG, 8_000, body_fraction=0.5, visual_weight=3),
            ]
        )
        result = replay_site(spec)
        js = result.timeline.resources[spec.url_of("block.js")]
        img = result.timeline.resources[spec.url_of("late.jpg")]
        # The image request goes out long before the script finished
        # executing (finished_at + exec happens later than discovery).
        assert img.requested_at < js.finished_at + 300

    def test_dedup_one_request_per_url(self):
        spec = base_spec(
            resources=[ResourceSpec("a.css", CSS, 5_000, in_head=True)]
        )
        result = replay_site(spec)
        urls = [trace.url for trace in result.timeline.requests]
        assert len(urls) == len(set(urls))


class TestRequestTraces:
    def test_navigation_trace_first(self):
        spec = base_spec(resources=[ResourceSpec("a.css", CSS, 5_000, in_head=True)])
        result = replay_site(spec)
        assert result.timeline.requests[0].initiator == "navigation"
        assert result.timeline.requests[0].weight == 256

    def test_initiator_urls_for_hidden_children(self):
        spec = base_spec(
            resources=[
                ResourceSpec("a.css", CSS, 5_000, in_head=True),
                ResourceSpec("f.woff2", ResourceType.FONT, 4_000,
                             loaded_by="a.css", visual_weight=2),
            ]
        )
        result = replay_site(spec)
        font_trace = next(
            t for t in result.timeline.requests if t.url.endswith("f.woff2")
        )
        assert font_trace.initiator == "css"
        assert font_trace.initiator_url == spec.url_of("a.css")


class TestDelayableThrottle:
    def test_in_flight_cap_respected(self):
        resources = [
            ResourceSpec(f"i{n}.jpg", IMG, 30_000, body_fraction=0.05,
                         above_fold=False)
            for n in range(30)
        ]
        spec = base_spec(name="throttle", resources=resources)
        config = BrowserConfig(max_delayable_in_flight=4)
        testbed = ReplayTestbed(built=build_site(spec), browser_config=config)
        result = testbed.run()
        # With a cap of 4 in flight, request start times form waves:
        # the 30 images cannot all start together.
        starts = sorted(
            r.requested_at
            for r in result.timeline.resources.values()
            if r.url.endswith(".jpg")
        )
        assert starts[-1] - starts[0] > 50.0

    def test_throttle_does_not_lose_requests(self):
        resources = [
            ResourceSpec(f"i{n}.jpg", IMG, 5_000, body_fraction=0.05, above_fold=False)
            for n in range(20)
        ]
        spec = base_spec(name="nolose", resources=resources)
        config = BrowserConfig(max_delayable_in_flight=2)
        testbed = ReplayTestbed(built=build_site(spec), browser_config=config)
        result = testbed.run()
        finished = [r for r in result.timeline.resources.values() if r.finished_at]
        assert len(finished) == 21


class TestPushInteraction:
    def test_push_for_already_requested_url_cancelled(self):
        """A push promised after the client requested the URL is waste."""
        spec = base_spec(
            html_size=5_000,  # tiny HTML: discovery precedes the promise? no —
            resources=[ResourceSpec("a.css", CSS, 9_000, in_head=True)],
        )
        built = build_site(spec)
        # Delay the promise far enough that the client requested a.css:
        # push it on the *second* request's stream cannot be modelled, so
        # instead verify the invariant: adopted + cancelled == received.
        testbed = ReplayTestbed(built=built, strategy=PushAllStrategy())
        result = testbed.run()
        timeline = result.timeline
        assert timeline.pushes_adopted + timeline.pushes_cancelled == (
            timeline.pushes_received
        )

    def test_pushed_bytes_tracked_on_timeline(self):
        spec = base_spec(resources=[ResourceSpec("a.css", CSS, 9_000, in_head=True)])
        testbed = ReplayTestbed(built=build_site(spec), strategy=PushAllStrategy())
        result = testbed.run()
        assert result.timeline.pushed_bytes == 9_000

    def test_interleave_offset_zero_pushes_before_html(self):
        spec = base_spec(
            html_size=60_000,
            resources=[ResourceSpec("a.css", CSS, 9_000, in_head=True)],
        )
        built = build_site(spec)
        url = spec.url_of("a.css")
        testbed = ReplayTestbed(
            built=built,
            strategy=PushListStrategy([url], critical_urls=[url],
                                      interleave_offset=0, name="first"),
        )
        result = testbed.run()
        css = result.timeline.resources[url]
        html = result.timeline.resources[built.html_url]
        assert css.finished_at < html.finished_at

    def test_onload_waits_for_every_fetch_but_not_for_parked_pushes(self):
        """Pushed ahead of a long HTML, every image finishes while still
        parked and is adopted only when the parser reaches it; one push
        is never referenced and stays parked.  onload follows every
        resource the page fetched and does not wait for the parked one."""
        images = [
            ResourceSpec(f"p{n}.jpg", IMG, 3_000, body_fraction=0.9, visual_weight=1)
            for n in range(6)
        ]
        spec = base_spec(name="onload", html_size=120_000, resources=images)
        built = build_site(spec)
        unused = "https://e.example/never-referenced.jpg"
        built.bodies[unused] = b"\0" * 2_000
        built.content_types[unused] = "image/jpeg"
        pushed = [unused] + [spec.url_of(image.name) for image in images]
        strategy = PushListStrategy(
            pushed, critical_urls=pushed, interleave_offset=0, name="early"
        )
        timeline = ReplayTestbed(built=built, strategy=strategy).run().timeline
        assert timeline.pushes_received == 7 and timeline.pushes_adopted == 6
        assert unused not in timeline.resources
        html = timeline.resources[built.html_url]
        for url in pushed[1:]:
            # Adopted, and so finished, while the HTML was still arriving.
            assert timeline.resources[url].finished_at < html.finished_at
        assert timeline.onload is not None
        assert timeline.onload >= max(r.finished_at for r in timeline.resources.values())


class TestConfig:
    def test_parse_rate_changes_timing(self):
        spec = base_spec(
            html_size=200_000,
            resources=[ResourceSpec("a.css", CSS, 5_000, in_head=True)],
        )
        built = build_site(spec)
        fast = ReplayTestbed(
            built=built, browser_config=BrowserConfig(parse_rate_bytes_per_ms=50_000)
        ).run()
        slow = ReplayTestbed(
            built=built, browser_config=BrowserConfig(parse_rate_bytes_per_ms=500)
        ).run()
        assert slow.plt_ms > fast.plt_ms + 100

    def test_zero_jitter_fully_deterministic(self):
        spec = base_spec(resources=[ResourceSpec("a.css", CSS, 5_000, in_head=True)])
        built = build_site(spec)
        config = BrowserConfig(cpu_jitter=0.0)
        values = {
            ReplayTestbed(built=built, browser_config=config).run(seed=s).plt_ms
            for s in range(4)
        }
        assert len(values) == 1
