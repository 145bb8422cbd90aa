"""Integration: the §4.2 order computation on real loads.

The paper majority-votes because per-run orders are unstable due to
client-side processing; the computed order must still be sensible —
render-critical resources first, hidden children after their parents.
"""

from repro.experiments import ExperimentEngine
from repro.html import ResourceSpec, ResourceType, WebsiteSpec, build_site
from repro.sites.synthetic import s1_loading_screen


def order_for(spec, runs):
    return ExperimentEngine().order_for(spec, runs=runs)


def test_order_covers_all_resources():
    spec = s1_loading_screen()
    order = order_for(spec, runs=3)
    assert len(order) == len(spec.resources)


def test_critical_resources_lead_the_order():
    spec = s1_loading_screen()
    order = order_for(spec, runs=3)
    positions = {url.rsplit("/", 1)[-1]: index for index, url in enumerate(order)}
    # Render-blocking CSS/JS outrank every image.
    assert positions["app.css"] < positions["img0.jpg"]
    assert positions["app.js"] < positions["img0.jpg"]


def test_hidden_children_follow_their_parent():
    spec = s1_loading_screen()
    order = order_for(spec, runs=3)
    positions = {url.rsplit("/", 1)[-1]: index for index, url in enumerate(order)}
    # The fonts are referenced inside app.css; they cannot precede it.
    assert positions["heading.woff2"] > positions["app.css"]
    assert positions["body.woff2"] > positions["app.css"]


def test_order_is_stable_across_vote_sizes():
    spec = s1_loading_screen()
    small = order_for(spec, runs=2)
    large = order_for(spec, runs=5)
    # The head of the order (the part that matters for pushing) agrees.
    assert small[:3] == large[:3]


def test_third_party_resources_excluded_from_pushable_order():
    spec = WebsiteSpec(
        name="order-tp",
        primary_domain="ot.example",
        html_size=15_000,
        resources=[
            ResourceSpec("a.css", ResourceType.CSS, 4_000, in_head=True),
            ResourceSpec("x.js", ResourceType.JS, 4_000, domain="tp.example",
                         body_fraction=0.5, async_script=True),
        ],
        domain_ips={"tp.example": "10.0.0.50"},
    )
    order = order_for(spec, runs=2)
    # The order includes everything the browser requested (the strategy
    # layer applies the authority filter later).
    assert any("a.css" in url for url in order)
    assert any("x.js" in url for url in order)
