"""Chromium-like request priorities mapped to HTTP/2 weights.

The paper's case studies hinge on the browser's priority behaviour:
Chromium gives the base document the highest priority, so an h2o server
honouring stream weights sends *the entire HTML before the CSS* (w1,
§5) — exactly the behaviour interleaving push overrides.

Subresources requested while the main document stream is still open are
made dependents of that stream, mirroring how Chromium builds its
dependency chain off the main resource; the server's priority-tree
scheduler therefore drains the HTML before any child stream.
"""

from __future__ import annotations

from ..html.resources import ResourceType

#: HTTP/2 weight of the main document stream (Chromium: Highest).
WEIGHT_MAIN = 256

#: Weights per resource class, Chromium bucket equivalents.
WEIGHT_CSS = 220       # render-blocking stylesheet (High)
WEIGHT_FONT = 220      # fonts block text paint (High)
WEIGHT_SYNC_JS = 183   # parser-blocking script (Medium)
WEIGHT_ASYNC_JS = 147  # async/defer script (Low)
WEIGHT_IMAGE = 110     # images (Lowest)
WEIGHT_OTHER = 110

# Module aliases: a module global loads in a quarter of the time of an
# enum attribute, and every request asks for its weight.
_HTML = ResourceType.HTML
_CSS = ResourceType.CSS
_FONT = ResourceType.FONT
_JS = ResourceType.JS
_IMAGE = ResourceType.IMAGE


def weight_for(rtype: ResourceType, is_async: bool = False) -> int:
    """The H2 weight a Chromium-like client assigns to a request."""
    if rtype == _HTML:
        return WEIGHT_MAIN
    if rtype == _CSS:
        return WEIGHT_CSS
    if rtype == _FONT:
        return WEIGHT_FONT
    if rtype == _JS:
        return WEIGHT_ASYNC_JS if is_async else WEIGHT_SYNC_JS
    if rtype == _IMAGE:
        return WEIGHT_IMAGE
    return WEIGHT_OTHER
