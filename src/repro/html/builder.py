"""Render a :class:`~repro.html.spec.WebsiteSpec` to real bytes.

The builder produces the base HTML document and the body of every
sub-resource: stylesheets with ``url(...)`` references to their hidden
children, scripts with ``loadResource(...)`` calls, and opaque
image/font/other bodies.  Everything the browser model later learns
about the page, it learns by parsing the HTML, CSS and JS bytes —
layout hints travel as ``data-*`` attributes, the self-describing
equivalent of the real browser's layout knowledge.

Nothing reads an opaque body; only its size matters.  So it is not
stored: each one is a read-only ``memoryview`` prefix of one shared,
zero-filled buffer (:func:`_opaque_body`), and a built site holds only
the bytes something parses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ConfigError
from ..span import Body
from .resources import CONTENT_TYPES, ResourceType
from .spec import ResourceSpec, WebsiteSpec

#: Number of visible text blocks the HTML body is split into.
TEXT_BLOCKS = 8

_LOREM = (
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod "
    "tempor incididunt ut labore et dolore magna aliqua "
)


@dataclass
class BuiltSite:
    """The rendered website: every body keyed by URL."""

    spec: WebsiteSpec
    html: bytes
    html_url: str
    #: HTML, CSS and JS bodies are ``bytes``; opaque bodies are views
    #: (see :func:`_opaque_body`).
    bodies: Dict[str, Body] = field(default_factory=dict)
    content_types: Dict[str, str] = field(default_factory=dict)

    @property
    def head_end_offset(self) -> int:
        """Byte offset just past ``</head>`` — the natural interleaving
        pause point from the paper's motivating example (§5)."""
        index = self.html.find(b"</head>")
        if index == -1:
            raise ConfigError("built HTML lacks </head>")
        return index + len(b"</head>")


def build_site(spec: WebsiteSpec) -> BuiltSite:
    """Render the site; the HTML is padded to ``spec.html_size`` bytes.

    If the references alone exceed ``html_size`` the document simply
    ends up larger; sizes are treated as on-the-wire (compressed)
    transfer sizes throughout the testbed.
    """
    _validate_parents(spec)
    html_url = f"https://{spec.primary_domain}/"
    html = _build_html(spec)
    built = BuiltSite(spec=spec, html=html, html_url=html_url)
    built.bodies[html_url] = html
    built.content_types[html_url] = CONTENT_TYPES[ResourceType.HTML]
    for res in spec.resources:
        url = res.url(spec.primary_domain)
        built.bodies[url] = _build_body(spec, res)
        built.content_types[url] = CONTENT_TYPES[res.rtype]
    return built


def _validate_parents(spec: WebsiteSpec) -> None:
    for res in spec.resources:
        if res.loaded_by is None:
            continue
        parent = spec.resource(res.loaded_by)
        if parent.rtype not in (ResourceType.CSS, ResourceType.JS):
            raise ConfigError(
                f"{spec.name}: {res.name} loaded_by {parent.name}, "
                f"but only CSS/JS can load hidden resources"
            )


# ----------------------------------------------------------------------
# HTML document
# ----------------------------------------------------------------------
def _build_html(spec: WebsiteSpec) -> bytes:
    head_parts: List[str] = [
        f'<meta charset="utf-8"><title>{spec.name}</title>',
    ]
    for res in spec.resources:
        # Preload announcements lead the head so the scanner sees them
        # before any reference; a directly-referenced font is skipped
        # because its reference *is* already a rel=preload link.
        if res.preload and not (
            res.rtype == ResourceType.FONT and res.loaded_by is None
        ):
            head_parts.append(_preload_tag(spec, res))
    for res in spec.resources:
        if res.in_head and res.loaded_by is None:
            head_parts.append(_ref_tag(spec, res))
    if spec.head_inline_script_ms > 0:
        head_parts.append(
            f'<script data-exec="{spec.head_inline_script_ms:g}">'
            f"/* inline head work */</script>"
        )

    body_items: List[Tuple[float, str]] = []
    for res in spec.resources:
        if not res.in_head and res.loaded_by is None:
            body_items.append((res.body_fraction, _ref_tag(spec, res)))
    if spec.body_inline_script_ms > 0:
        body_items.append(
            (
                spec.body_inline_fraction,
                f'<script data-exec="{spec.body_inline_script_ms:g}">'
                f"/* inline body work */</script>",
            )
        )
    text_markers: List[Tuple[float, str]] = []
    atf_blocks = max(1, min(TEXT_BLOCKS, round(spec.atf_text_fraction * TEXT_BLOCKS)))
    block_weight = spec.html_visual_weight / atf_blocks
    for block in range(TEXT_BLOCKS):
        fraction = (block + 0.5) / TEXT_BLOCKS
        text_markers.append((fraction, f"@TEXT{block}@"))
    body_items.extend(text_markers)
    body_items.sort(key=lambda item: item[0])

    skeleton = (
        "<!DOCTYPE html>\n<html><head>"
        + "".join(head_parts)
        + "</head>\n<body>"
        + "\n".join(tag for _fraction, tag in body_items)
        + "@PAD@</body></html>"
    )
    # Distribute filler across the text blocks to reach html_size.
    fixed = len(skeleton) - len("@PAD@") - sum(len(f"@TEXT{b}@") for b in range(TEXT_BLOCKS))
    per_block_overhead = len(f'<p data-vw="{block_weight:.3f}"></p>')
    budget = spec.html_size - fixed - TEXT_BLOCKS * per_block_overhead
    per_block = max(budget // TEXT_BLOCKS, 0)
    for block in range(TEXT_BLOCKS):
        text = _filler(per_block)
        weight = block_weight if block < atf_blocks else 0.0
        skeleton = skeleton.replace(
            f"@TEXT{block}@", f'<p data-vw="{weight:.3f}">{text}</p>'
        )
    shortfall = spec.html_size - (len(skeleton) - len("@PAD@"))
    pad = f"<!--{'x' * max(shortfall - 7, 0)}-->" if shortfall > 7 else ""
    return skeleton.replace("@PAD@", pad).encode("utf-8")


#: ``as`` attribute values per resource class (Fetch destination names).
_PRELOAD_AS = {
    ResourceType.CSS: "style",
    ResourceType.JS: "script",
    ResourceType.IMAGE: "image",
    ResourceType.FONT: "font",
    ResourceType.OTHER: "fetch",
}


def _preload_tag(spec: WebsiteSpec, res: ResourceSpec) -> str:
    url = res.url(spec.primary_domain)
    return f'<link rel="preload" as="{_PRELOAD_AS[res.rtype]}" href="{url}">'


def _ref_tag(spec: WebsiteSpec, res: ResourceSpec) -> str:
    url = res.url(spec.primary_domain)
    if res.rtype == ResourceType.CSS:
        media = ' media="print"' if res.media_print else ""
        return f'<link rel="stylesheet" href="{url}" data-exec="{res.exec_ms:g}"{media}>'
    if res.rtype == ResourceType.JS:
        loading = " async" if res.async_script else (" defer" if res.defer_script else "")
        return (
            f'<script src="{url}" data-exec="{res.exec_ms:g}" '
            f'data-vw="{res.visual_weight:g}"{loading}></script>'
        )
    if res.rtype == ResourceType.IMAGE:
        atf = "1" if res.above_fold else "0"
        return f'<img src="{url}" data-vw="{res.visual_weight:g}" data-atf="{atf}">'
    if res.rtype == ResourceType.FONT:
        atf = "1" if res.above_fold else "0"
        return (
            f'<link rel="preload" as="font" href="{url}" '
            f'data-vw="{res.visual_weight:g}" data-atf="{atf}">'
        )
    # OTHER: fetched like an image but invisible.
    return f'<img src="{url}" data-vw="0" data-atf="0">'


def _filler(size: int) -> str:
    if size <= 0:
        return ""
    repeated = _LOREM * (size // len(_LOREM) + 1)
    return repeated[:size]


# ----------------------------------------------------------------------
# sub-resource bodies
# ----------------------------------------------------------------------
def _build_body(spec: WebsiteSpec, res: ResourceSpec) -> Body:
    children = [child for child in spec.resources if child.loaded_by == res.name]
    if res.rtype == ResourceType.CSS:
        return _build_css(spec, res, children)
    if res.rtype == ResourceType.JS:
        return _build_js(spec, res, children)
    return _opaque_body(res.size)


def _build_css(spec: WebsiteSpec, res: ResourceSpec, children: List[ResourceSpec]) -> bytes:
    """Generate a stylesheet as individual rules.

    A ``critical_fraction`` share of the rule bytes is marked with
    ``.atfN`` selectors — the rules a viewport analysis (penthouse)
    would identify as needed for above-the-fold rendering.  References
    to hidden children ride on ATF rules when the child paints above
    the fold, otherwise on below-the-fold rules.
    """
    lines = [f"/* exec:{res.exec_ms:g} */"]
    for index, child in enumerate(children):
        url = child.url(spec.primary_domain)
        prefix = "atf" if (child.above_fold and child.visual_weight > 0) else "btf"
        if child.rtype == ResourceType.FONT:
            lines.append(
                f"@font-face{{font-family:{prefix}f{index};src:url({url});"
                f"/*vw:{child.visual_weight:g}*/}}"
            )
        else:
            lines.append(
                f".{prefix}bg{index}{{background-image:url({url});"
                f"/*vw:{child.visual_weight:g}*/}}"
            )
    header = "\n".join(lines)
    body_parts = [header]
    size_so_far = len(header)
    atf_budget = res.critical_fraction * res.size
    atf_bytes = sum(len(line) for line in lines if ".atf" in line or "atff" in line)
    index = 0
    filler = (
        "color:#222;margin:0 auto;padding:4px 8px;display:flex;"
        "align-items:center;font-size:14px;line-height:1.5"
    )
    while True:
        if atf_bytes < atf_budget:
            rule = f".atf{index}{{{filler};order:{index}}}"
        else:
            rule = f".btf{index}{{{filler};order:{index}}}"
        if size_so_far + len(rule) + 1 > res.size:
            break
        if rule.startswith(".atf"):
            atf_bytes += len(rule)
        body_parts.append(rule)
        size_so_far += len(rule) + 1
        index += 1
    body = "\n".join(body_parts)
    return _pad_text(body, res.size, "/*", "*/").encode("utf-8")


def _build_js(spec: WebsiteSpec, res: ResourceSpec, children: List[ResourceSpec]) -> bytes:
    lines = [f"// exec:{res.exec_ms:g}"]
    for child in children:
        url = child.url(spec.primary_domain)
        lines.append(f'loadResource("{url}");')
    lines.append("function main(){return 1;}")
    body = "\n".join(lines)
    return _pad_text(body, res.size, "/*", "*/").encode("utf-8")


#: The buffer every opaque body is a prefix of.  Its content never
#: changes, so sharing it across sites and callers is invisible.  A
#: larger body replaces it with one at least twice as large, so it stays
#: under twice the largest opaque body; a replaced buffer lives on only
#: while a site still holds views of it.
_opaque = memoryview(b"")


def _opaque_body(size: int) -> memoryview:
    """A read-only, zero-filled body of ``size`` bytes that stores none."""
    global _opaque
    if size > len(_opaque):
        _opaque = memoryview(bytes(max(size, 2 * len(_opaque))))
    return _opaque[:size]


def _pad_text(body: str, size: int, open_comment: str, close_comment: str) -> str:
    shortfall = size - len(body)
    overhead = len(open_comment) + len(close_comment) + 1
    if shortfall <= overhead:
        return body
    return body + "\n" + open_comment + "p" * (shortfall - overhead) + close_comment
