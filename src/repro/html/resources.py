"""Web resource model: types, URLs, and classification."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple


class ResourceType(enum.Enum):
    """Resource classes the paper's strategies distinguish (§4.2.1)."""

    HTML = "html"
    CSS = "css"
    JS = "js"
    IMAGE = "image"
    FONT = "font"
    OTHER = "other"


#: Content types emitted by the builder / replay server per class.
CONTENT_TYPES = {
    ResourceType.HTML: "text/html; charset=utf-8",
    ResourceType.CSS: "text/css",
    ResourceType.JS: "application/javascript",
    ResourceType.IMAGE: "image/jpeg",
    ResourceType.FONT: "font/woff2",
    ResourceType.OTHER: "application/octet-stream",
}

_TYPE_BY_CONTENT_TYPE = {
    "text/html": ResourceType.HTML,
    "text/css": ResourceType.CSS,
    "application/javascript": ResourceType.JS,
    "text/javascript": ResourceType.JS,
    "image/jpeg": ResourceType.IMAGE,
    "image/png": ResourceType.IMAGE,
    "image/gif": ResourceType.IMAGE,
    "image/webp": ResourceType.IMAGE,
    "image/svg+xml": ResourceType.IMAGE,
    "font/woff2": ResourceType.FONT,
    "font/woff": ResourceType.FONT,
    "application/font-woff": ResourceType.FONT,
}

_TYPE_BY_EXTENSION = {
    "html": ResourceType.HTML,
    "htm": ResourceType.HTML,
    "css": ResourceType.CSS,
    "js": ResourceType.JS,
    "jpg": ResourceType.IMAGE,
    "jpeg": ResourceType.IMAGE,
    "png": ResourceType.IMAGE,
    "gif": ResourceType.IMAGE,
    "webp": ResourceType.IMAGE,
    "svg": ResourceType.IMAGE,
    "woff": ResourceType.FONT,
    "woff2": ResourceType.FONT,
    "ttf": ResourceType.FONT,
}


def classify_content_type(content_type: Optional[str]) -> ResourceType:
    """Map a Content-Type header value to a :class:`ResourceType`."""
    if not content_type:
        return ResourceType.OTHER
    base = content_type.split(";", 1)[0].strip().lower()
    return _TYPE_BY_CONTENT_TYPE.get(base, ResourceType.OTHER)


def classify_url(url: str) -> ResourceType:
    """Best-effort classification from a URL's extension."""
    path = split_url(url)[1].split("?", 1)[0]
    if "." not in path.rsplit("/", 1)[-1]:
        return ResourceType.HTML
    extension = path.rsplit(".", 1)[-1].lower()
    return _TYPE_BY_EXTENSION.get(extension, ResourceType.OTHER)


@lru_cache(maxsize=4096)
def split_url(url: str) -> Tuple[str, str]:
    """Split ``https://domain/path`` into ``(domain, /path)``.

    Memoised: a page load asks for the same object's URL parts in the
    browser, the server and the push strategy.  A hit is one C-level
    call; the result is an immutable tuple.
    """
    if "://" in url:
        url = url.split("://", 1)[1]
    if "/" in url:
        domain, path = url.split("/", 1)
        return domain, "/" + path
    return url, "/"


def make_url(domain: str, name: str) -> str:
    """Canonical URL for a named resource on a domain."""
    return f"https://{domain}/{name.lstrip('/')}"


@dataclass
class FetchedResource:
    """A resource as the browser sees it at runtime."""

    url: str
    rtype: ResourceType
    size: int = 0
    discovered_at: float = 0.0
    requested_at: Optional[float] = None
    response_start: Optional[float] = None
    finished_at: Optional[float] = None
    pushed: bool = False
    from_cache: bool = False

    @property
    def domain(self) -> str:
        return split_url(self.url)[0]

    @property
    def path(self) -> str:
        return split_url(self.url)[1]

    @property
    def load_time_ms(self) -> Optional[float]:
        if self.finished_at is None or self.requested_at is None:
            return None
        return self.finished_at - self.requested_at
