"""Tests for the HTML/CSS/JS site builder."""

import hashlib
import tracemalloc

import pytest

from repro.errors import ConfigError
from repro.html import (
    HtmlTokenizer,
    ResourceSpec,
    ResourceType,
    WebsiteSpec,
    build_site,
    scan_css,
    scan_exec_hint,
    scan_js,
)
from repro.html.tokenizer import ImageToken, ScriptToken, StylesheetToken, TextToken
from repro.sites import TOP_100_PROFILE, generate_corpus

OPAQUE = (ResourceType.IMAGE, ResourceType.FONT, ResourceType.OTHER)
TEXT = (ResourceType.CSS, ResourceType.JS)

#: SHA-256 over the first TOP_100_PROFILE site's HTML, then its CSS and
#: JS bodies in spec order, as built while opaque bodies were still
#: stored as ``bytes`` of their own.
TOP_SITE_TEXT_SHA256 = "e6befdb0a7fc89424178daaa905eaf648cf5300d36f4db8b5bfb4d2d36abb49e"


def demo_spec(**kwargs):
    defaults = dict(
        name="demo",
        primary_domain="demo.example",
        html_size=25_000,
        html_visual_weight=32,
        resources=[
            ResourceSpec("main.css", ResourceType.CSS, 12_000, in_head=True, exec_ms=4),
            ResourceSpec("app.js", ResourceType.JS, 18_000, body_fraction=0.4, exec_ms=15),
            ResourceSpec("pic.jpg", ResourceType.IMAGE, 9_000, body_fraction=0.7, visual_weight=6),
            ResourceSpec("f.woff2", ResourceType.FONT, 7_000, loaded_by="main.css", visual_weight=3),
            ResourceSpec("lazy.png", ResourceType.IMAGE, 4_000, loaded_by="app.js", visual_weight=2),
        ],
    )
    defaults.update(kwargs)
    return WebsiteSpec(**defaults)


def test_html_size_close_to_target():
    built = build_site(demo_spec())
    assert abs(len(built.html) - 25_000) <= 8


def test_every_resource_has_a_body():
    spec = demo_spec()
    built = build_site(spec)
    for res in spec.resources:
        body = built.bodies[res.url(spec.primary_domain)]
        assert abs(len(body) - res.size) <= 8


def test_head_end_offset_points_past_head():
    built = build_site(demo_spec())
    assert built.html[: built.head_end_offset].endswith(b"</head>")


def test_document_tokenizes_to_spec():
    spec = demo_spec()
    built = build_site(spec)
    tokens = HtmlTokenizer().feed(built.html)
    css = [t for t in tokens if isinstance(t, StylesheetToken)]
    scripts = [t for t in tokens if isinstance(t, ScriptToken) and t.url]
    images = [t for t in tokens if isinstance(t, ImageToken)]
    assert len(css) == 1 and css[0].exec_ms == 4.0
    assert len(scripts) == 1 and scripts[0].exec_ms == 15.0
    assert len(images) == 1 and images[0].visual_weight == 6.0


def test_hidden_children_not_in_html():
    spec = demo_spec()
    built = build_site(spec)
    assert b"f.woff2" not in built.html
    assert b"lazy.png" not in built.html


def test_css_references_hidden_font():
    spec = demo_spec()
    built = build_site(spec)
    css = built.bodies[spec.url_of("main.css")].decode()
    assert scan_css(css) == [spec.url_of("f.woff2")]
    assert scan_exec_hint(css) == 4.0


def test_js_references_hidden_image():
    spec = demo_spec()
    built = build_site(spec)
    js = built.bodies[spec.url_of("app.js")].decode()
    assert scan_js(js) == [spec.url_of("lazy.png")]


def test_text_weight_distribution():
    spec = demo_spec(atf_text_fraction=0.25)
    built = build_site(spec)
    tokens = HtmlTokenizer().feed(built.html)
    text_weights = [t.visual_weight for t in tokens if isinstance(t, TextToken)]
    assert len(text_weights) == 8
    assert sum(1 for w in text_weights if w > 0) == 2
    assert sum(text_weights) == pytest.approx(32, abs=0.1)


def test_atf_full_page_distribution():
    spec = demo_spec(atf_text_fraction=1.0)
    built = build_site(spec)
    tokens = HtmlTokenizer().feed(built.html)
    text_weights = [t.visual_weight for t in tokens if isinstance(t, TextToken)]
    assert all(w > 0 for w in text_weights)


def test_css_marks_critical_rules():
    spec = demo_spec()
    spec.resources[0].critical_fraction = 0.3
    built = build_site(spec)
    css = built.bodies[spec.url_of("main.css")].decode()
    atf_bytes = sum(len(line) for line in css.splitlines() if ".atf" in line)
    total = len(css)
    assert 0.15 < atf_bytes / total < 0.45


def test_invalid_parent_type_rejected():
    spec = demo_spec()
    spec.resources.append(
        ResourceSpec("x.png", ResourceType.IMAGE, 100, loaded_by="pic.jpg")
    )
    with pytest.raises(ConfigError):
        build_site(spec)


def test_media_print_attribute():
    spec = demo_spec()
    spec.resources[0].media_print = True
    built = build_site(spec)
    assert b'media="print"' in built.html


def test_async_and_defer_attributes():
    spec = demo_spec()
    spec.resources[1].async_script = True
    built = build_site(spec)
    tokens = HtmlTokenizer().feed(built.html)
    script = next(t for t in tokens if isinstance(t, ScriptToken) and t.url)
    assert script.is_async


def test_inline_scripts_emitted():
    spec = demo_spec(head_inline_script_ms=7, body_inline_script_ms=11)
    built = build_site(spec)
    tokens = HtmlTokenizer().feed(built.html)
    inline = [t for t in tokens if isinstance(t, ScriptToken) and t.url is None]
    assert [t.exec_ms for t in inline] == [7.0, 11.0]


def test_binary_bodies_deterministic():
    spec = demo_spec()
    a = build_site(spec).bodies[spec.url_of("pic.jpg")]
    b = build_site(spec).bodies[spec.url_of("pic.jpg")]
    assert a == b


def top_site_spec():
    return generate_corpus(TOP_100_PROFILE, count=1, seed=2018)[0].spec


def test_opaque_bodies_are_views_of_one_shared_buffer():
    spec = top_site_spec()
    build_site(spec)  # the shared buffer now covers every opaque body
    built = build_site(spec)
    buffers = set()
    for res in spec.resources:
        body = built.bodies[res.url(spec.primary_domain)]
        if res.rtype in OPAQUE:
            assert isinstance(body, memoryview) and body.readonly
            assert len(body) == res.size
            assert body == bytes(res.size)
            buffers.add(id(body.obj))
        else:
            assert type(body) is bytes
    assert len(buffers) == 1
    assert type(built.bodies[built.html_url]) is bytes


def test_a_rebuilt_site_allocates_only_its_text_bodies():
    spec = top_site_spec()
    first = build_site(spec)
    text = sum(len(body) for body in first.bodies.values() if type(body) is bytes)
    opaque = sum(len(body) for body in first.bodies.values() if type(body) is not bytes)
    assert opaque > 500_000
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        second = build_site(spec)
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(second.bodies) == len(first.bodies)
    assert after - before < text + 64 * 1024


def test_text_bodies_are_unchanged():
    spec = top_site_spec()
    built = build_site(spec)
    digest = hashlib.sha256(built.html)
    for res in spec.resources:
        if res.rtype in TEXT:
            digest.update(built.bodies[res.url(spec.primary_domain)])
    assert digest.hexdigest() == TOP_SITE_TEXT_SHA256
