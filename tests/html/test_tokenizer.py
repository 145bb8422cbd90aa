"""Tests for the incremental HTML tokenizer and content scanners."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.html.builder import build_site
from repro.html.tokenizer import (
    DocumentEndToken,
    FontToken,
    HeadEndToken,
    HtmlTokenizer,
    ImageToken,
    ScriptToken,
    StylesheetToken,
    TextToken,
    scan_css,
    scan_exec_hint,
    scan_js,
)
from repro.sites.synthetic import s2_landing

SAMPLE = b"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>t</title>
<link rel="stylesheet" href="https://x.example/a.css" data-exec="4">
<link rel="stylesheet" href="https://x.example/print.css" media="print">
<link rel="preload" as="font" href="https://x.example/f.woff2" data-vw="7" data-atf="1">
<script src="https://x.example/a.js" data-exec="20" data-vw="3" async></script>
<script data-exec="5">var inline = loadResource("https://x.example/h.jpg");</script>
</head>
<body>
<p data-vw="2.5">hello world text</p>
<img src="https://x.example/i.jpg" data-vw="9" data-atf="0">
<script src="https://x.example/d.js" data-exec="1" defer></script>
</body></html>"""


def tokenize(data=SAMPLE, chunk=None):
    tokenizer = HtmlTokenizer()
    if chunk is None:
        return tokenizer.feed(data)
    tokens = []
    for index in range(0, len(data), chunk):
        tokens.extend(tokenizer.feed(data[index : index + chunk]))
    return tokens


def test_all_token_kinds_found():
    kinds = [type(token).__name__ for token in tokenize()]
    assert kinds == [
        "StylesheetToken",
        "StylesheetToken",
        "FontToken",
        "ScriptToken",
        "ScriptToken",
        "HeadEndToken",
        "TextToken",
        "ImageToken",
        "ScriptToken",
        "DocumentEndToken",
    ]


def test_stylesheet_attributes():
    tokens = tokenize()
    css = [t for t in tokens if isinstance(t, StylesheetToken)]
    assert css[0].url == "https://x.example/a.css"
    assert css[0].exec_ms == 4.0
    assert not css[0].media_print
    assert css[1].media_print


def test_font_preload():
    font = next(t for t in tokenize() if isinstance(t, FontToken))
    assert font.url == "https://x.example/f.woff2"
    assert font.visual_weight == 7.0
    assert font.above_fold


def test_script_attributes():
    scripts = [t for t in tokenize() if isinstance(t, ScriptToken)]
    external, inline, deferred = scripts
    assert external.url == "https://x.example/a.js"
    assert external.is_async and not external.is_defer
    assert external.exec_ms == 20.0
    assert inline.url is None
    assert "loadResource" in inline.content
    assert deferred.is_defer and not deferred.is_async


def test_image_attributes():
    image = next(t for t in tokenize() if isinstance(t, ImageToken))
    assert image.url == "https://x.example/i.jpg"
    assert image.visual_weight == 9.0
    assert not image.above_fold


def test_text_token_weight():
    text = next(t for t in tokenize() if isinstance(t, TextToken))
    assert text.visual_weight == 2.5


def test_offsets_are_monotonic_and_within_document():
    tokens = tokenize()
    offsets = [t.offset for t in tokens]
    assert offsets == sorted(offsets)
    assert offsets[-1] <= len(SAMPLE)


def test_byte_at_a_time_feeding_matches_bulk():
    bulk = [(type(t).__name__, t.offset) for t in tokenize()]
    trickle = [(type(t).__name__, t.offset) for t in tokenize(chunk=1)]
    assert bulk == trickle


def test_incomplete_tag_waits_for_more_bytes():
    tokenizer = HtmlTokenizer()
    assert tokenizer.feed(b'<link rel="stylesheet" hr') == []
    tokens = tokenizer.feed(b'ef="https://x.example/late.css">')
    assert len(tokens) == 1
    assert tokens[0].url == "https://x.example/late.css"


def test_inline_script_waits_for_closing_tag():
    tokenizer = HtmlTokenizer()
    assert tokenizer.feed(b'<script data-exec="9">var x = 1;') == []
    tokens = tokenizer.feed(b"</script>")
    assert len(tokens) == 1
    assert tokens[0].exec_ms == 9.0


def test_head_end_offset():
    head_end = next(t for t in tokenize() if isinstance(t, HeadEndToken))
    assert SAMPLE[: head_end.offset].endswith(b"</head>")


def test_scan_css_extracts_absolute_urls():
    css = '@font-face{src:url(https://x.example/f.woff2);} .a{background:url("relative.png")}'
    assert scan_css(css) == ["https://x.example/f.woff2"]


def test_scan_js():
    js = 'loadResource("https://x.example/one.js");\nloadResource(\'https://x.example/two.png\')'
    assert scan_js(js) == ["https://x.example/one.js", "https://x.example/two.png"]


def test_scan_exec_hint():
    assert scan_exec_hint("/* exec:12.5 */ .a{}") == 12.5
    assert scan_exec_hint(".a{}") == 0.0


# ----------------------------------------------------------------------
# by-reference documents: the token table against the incremental scan
# ----------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.html.tokenizer import document_tokens  # noqa: E402
from repro.span import Span  # noqa: E402

#: Constructs the scan treats specially: comments and stray ``<`` that
#: wait for a ``>``, tags inside ``<p>``, unterminated elements.
_FRAGMENTS = [
    b"<!-- a > b -->",
    b"<!DOCTYPE html>",
    b"1 < 2 and 3 > 2 ",
    b"<",
    b"plain text ",
    b'<img src="https://x.example/i.png" data-vw="3">',
    b'<p data-vw="1.5">text <img src="https://x.example/in-p.png"> more</p>',
    b'<link rel="stylesheet" href="https://x.example/s.css">',
    b'<link rel="preload" as="image" href="https://x.example/pre.png">',
    b'<script src="https://x.example/s.js" defer></script>',
    b"<script>if (a < b) { loadResource('https://x.example/h.js'); }</script>",
    b"</head>",
    b"<p>never closed",
    b"<script>never closed",
    b"</html>",
    b"<div class='x'>",
]

_documents = st.one_of(
    st.just(SAMPLE),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map(b"".join),
)


def _chunked(data, cuts):
    bounds = sorted({min(cut, len(data)) for cut in cuts} | {0, len(data)})
    return list(zip(bounds, bounds[1:]))


@given(document=_documents, cuts=st.lists(st.integers(0, 700), max_size=12))
@settings(max_examples=300, deadline=None)
def test_token_table_releases_what_the_scan_emits_chunk_by_chunk(document, cuts):
    scanning, by_reference = HtmlTokenizer(), HtmlTokenizer()
    for start, stop in _chunked(document, cuts):
        expected = scanning.feed(document[start:stop])
        assert by_reference.feed(Span(document, start, stop)) == expected
        assert by_reference.bytes_seen == scanning.bytes_seen == stop


@given(
    document=_documents,
    cuts=st.lists(st.integers(0, 700), max_size=12),
    switch=st.integers(0, 12),
)
@settings(max_examples=200, deadline=None)
def test_scan_resumes_where_the_by_reference_prefix_ends(document, cuts, switch):
    scanning, mixed = HtmlTokenizer(), HtmlTokenizer()
    for index, (start, stop) in enumerate(_chunked(document, cuts)):
        chunk = document[start:stop]
        data = Span(document, start, stop) if index < switch else chunk
        assert mixed.feed(data) == scanning.feed(chunk)


def test_document_tokens_are_shared_and_immutable():
    import dataclasses

    import pytest

    tokens = document_tokens(SAMPLE)
    assert document_tokens(bytes(bytearray(SAMPLE))) is tokens  # keyed by content
    assert list(tokens) == tokenize()
    with pytest.raises(dataclasses.FrozenInstanceError):
        tokens[0].offset = 0


# ----------------------------------------------------------------------
# a real page, damaged
# ----------------------------------------------------------------------
_PAGE = build_site(s2_landing()).html
_ATTR_VALUES = [m.span(1) for m in re.finditer(rb'="([^"]*)"', _PAGE)]
_NUMBERISH = st.text(alphabet="0123456789.-+e_ nainf\"<>/x", max_size=8)


@st.composite
def damaged_pages(draw):
    """The page with one attribute value replaced (numbers, non-numbers
    and broken quoting alike) or one byte range overwritten."""
    if draw(st.booleans()):
        start, stop = draw(st.sampled_from(_ATTR_VALUES))
        patch = draw(_NUMBERISH).encode()
    else:
        start = draw(st.integers(0, len(_PAGE)))
        stop = draw(st.integers(start, min(len(_PAGE), start + 16)))
        patch = draw(st.binary(max_size=16))
    return _PAGE[:start] + patch + _PAGE[stop:]


@given(damaged_pages(), st.sampled_from([None, 97]))
@settings(max_examples=300, deadline=None)
def test_damaged_page_tokenizes_or_raises_config_error(page, chunk):
    try:
        tokens = tokenize(page, chunk)
    except ConfigError:
        return
    for token in tokens:
        for name in ("visual_weight", "exec_ms"):
            value = getattr(token, name, 0.0)
            assert 0.0 <= value < math.inf, (token, name)


@pytest.mark.parametrize("value", ["zz", "x", "nan", "inf", "-1", "1e999"])
@pytest.mark.parametrize("attribute", ["data-vw", "data-exec"])
def test_bad_annotation_raises_config_error(attribute, value):
    page = f'<html><head></head><body><script src="https://x.example/a.js" {attribute}="{value}"></script></body></html>'
    with pytest.raises(ConfigError, match=attribute):
        tokenize(page.encode())
