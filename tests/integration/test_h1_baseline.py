"""Integration tests for the HTTP/1.1 baseline."""

import hashlib
from dataclasses import replace

import pytest

from repro.experiments.fig5_interleaving import make_test_site
from repro.experiments.fig8_mechanisms import make_mechanism_site
from repro.h1 import MAX_CONNECTIONS_PER_ORIGIN
from repro.html import ResourceSpec, ResourceType, WebsiteSpec, build_site
from repro.mechanisms import apply_mechanism
from repro.netsim.conditions import DSL_TESTBED
from repro.replay import ReplayTestbed
from repro.strategies import NoPushStrategy
from repro.trace import Tracer, qlog_json

CSS = ResourceType.CSS
IMG = ResourceType.IMAGE


def many_objects_spec():
    resources = [ResourceSpec("main.css", CSS, 10_000, in_head=True, exec_ms=2)]
    resources += [
        ResourceSpec(f"i{n}.jpg", IMG, 15_000, body_fraction=0.1 + n * 0.03,
                     visual_weight=1.0 if n < 6 else 0.0, above_fold=n < 6)
        for n in range(24)
    ]
    return WebsiteSpec(
        name="h1-many",
        primary_domain="h1.example",
        html_size=30_000,
        html_visual_weight=20,
        resources=resources,
    )


def run(protocol):
    built = build_site(many_objects_spec())
    return ReplayTestbed(built=built, protocol=protocol).run()


def test_h1_load_completes_with_all_resources():
    result = run("h1")
    assert result.plt_ms > 0
    finished = [r for r in result.timeline.resources.values() if r.finished_at]
    assert len(finished) == 26


def test_h1_carries_opaque_views_as_their_bytes():
    # Image bodies are views of the builder's shared buffer; the H1
    # server writes them into its byte stream, and the load moves the
    # same octets as when each image stored bytes of its own.
    spec = many_objects_spec()
    built = build_site(spec)
    images = [res for res in spec.resources if res.rtype == IMG]
    assert all(isinstance(built.bodies[spec.url_of(res.name)], memoryview) for res in images)
    result = ReplayTestbed(built=built, protocol="h1").run(seed=0)
    assert result.downlink_bytes == 416703
    for res in images:
        resource = result.timeline.resources[spec.url_of(res.name)]
        assert resource.finished_at is not None and resource.size == res.size


def test_h1_opens_parallel_connections():
    result = run("h1")
    # Up to six parallel connections per origin, definitely more than 1.
    assert 2 <= result.connections <= MAX_CONNECTIONS_PER_ORIGIN


def test_h2_uses_one_connection_h1_many():
    h1 = run("h1")
    h2 = run("h2")
    assert h2.connections == 1
    assert h1.connections > h2.connections


def test_h2_faster_for_many_small_objects():
    """Wang et al.: H2 multiplexing wins for many small objects."""
    h1 = run("h1")
    h2 = run("h2")
    assert h2.plt_ms < h1.plt_ms


def test_h1_never_receives_pushes():
    result = run("h1")
    assert result.timeline.pushes_received == 0
    assert result.pushed_bytes == 0


def test_h1_metrics_sane():
    result = run("h1")
    assert result.speed_index_ms > 0
    assert result.timeline.connect_end is not None
    assert result.first_paint_ms > 0


def test_h1_deterministic():
    built = build_site(many_objects_spec())
    testbed = ReplayTestbed(built=built, protocol="h1")
    assert testbed.run(seed=3).plt_ms == testbed.run(seed=3).plt_ms


def _mechanism_testbed(mechanism):
    spec, strategy = apply_mechanism(mechanism, make_mechanism_site(html_kb=40))
    return ReplayTestbed(
        built=build_site(spec),
        conditions=replace(DSL_TESTBED, server_delay_ms=30.0),
        strategy=strategy,
        protocol="h1",
    )


_PARITY = {
    # case: (testbed, seed, plt, si, downlink, uplink, connections,
    #        requests, first 16 hex digits of the qlog export's SHA-256)
    "many_objects-0": (
        lambda: ReplayTestbed(built=build_site(many_objects_spec()), protocol="h1"),
        0, 506.7605000000001, 200.5569874067161, 416703, 10218, 6, 26, "4f0c6bf4e6dce982",
    ),
    "many_objects-3": (
        lambda: ReplayTestbed(built=build_site(many_objects_spec()), protocol="h1"),
        3, 506.7605000000001, 200.60465416447423, 416703, 10218, 6, 26, "77796716806786b3",
    ),
    "test_site_30kb": (
        lambda: ReplayTestbed(built=build_site(make_test_site(30)), protocol="h1"),
        2, 170.46921434779296, 170.46921434779296, 43598, 943, 2, 2, "8fddacfea88ddba8",
    ),
    "early_hints": (
        lambda: _mechanism_testbed("early_hints"),
        1, 330.65400000000005, 248.50464876517228, 161719, 3049, 6, 5, "bb4b3e576efc8035",
    ),
    "preload": (
        lambda: _mechanism_testbed("preload"),
        1, 331.259, 249.0616350902401, 161429, 3009, 6, 5, "d75bd880a03a0a6a",
    ),
    "none": (
        lambda: _mechanism_testbed("none"),
        1, 331.259, 249.10964876517227, 161429, 3009, 6, 5, "86978155ce8fc78a",
    ),
}


@pytest.mark.parametrize("case", sorted(_PARITY))
def test_h1_numbers_and_qlog_are_pinned(case):
    """The H1 request path's numbers and trace, pinned exactly: they
    were measured while H1 exchanges still had a request path of their
    own in the browser, before H1 origins took H2's client surface."""
    make, seed, plt, si, down, up, conns, reqs, qlog = _PARITY[case]
    tracer = Tracer()
    result = make().run(seed=seed, tracer=tracer)
    assert (
        result.plt_ms,
        result.speed_index_ms,
        result.downlink_bytes,
        result.uplink_bytes,
        result.connections,
        result.requests,
    ) == (plt, si, down, up, conns, reqs)
    digest = hashlib.sha256(qlog_json(tracer.trace()).encode()).hexdigest()
    assert digest[:16] == qlog
