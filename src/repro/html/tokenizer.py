"""Incremental HTML tokenizer plus CSS/JS reference scanners.

The browser model feeds received bytes into :class:`HtmlTokenizer` and
gets back tokens *with byte offsets*: a token is only emitted once the
bytes containing it have arrived, which is what makes parse progress —
and therefore resource discovery — track the network byte stream.  The
interleaving server uses the same offsets to decide where to pause the
HTML (e.g. just after ``</head>``).

The scanners for CSS (``url(...)`` references: fonts, background
images) and JS (``loadResource("...")`` calls) make hidden resources
discoverable only after their parent resource loads or executes, the
effect the push-order guidelines in the paper worry about (§3).

A document that arrives *by reference* — as :class:`~repro.span.Span`
windows onto one recorded ``bytes`` — is not scanned again on every
load: :func:`document_tokens` tokenizes the source once, and the
tokenizer releases each token when the bytes received reach its
``offset``, which is exactly when the incremental scan would emit it.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ConfigError
from ..span import Span

_TAG_RE = re.compile(rb"<(/?)([a-zA-Z][a-zA-Z0-9]*)((?:\s+[^<>]*?)?)(/?)>", re.DOTALL)
_ATTR_RE = re.compile(rb'([a-zA-Z][a-zA-Z0-9_-]*)\s*=\s*"([^"]*)"')
_CSS_URL_RE = re.compile(r"url\(\s*['\"]?([^'\")]+)['\"]?\s*\)")
_JS_LOAD_RE = re.compile(r"loadResource\(\s*['\"]([^'\"]+)['\"]\s*\)")
_EXEC_HINT_RE = re.compile(r"/\*\s*exec:(\d+(?:\.\d+)?)\s*\*/")


@dataclass(frozen=True)
class Token:
    """Base token; ``offset`` is the byte index just past the token.

    Tokens are immutable: one document's tokens are shared by every
    load of it (:func:`document_tokens`).
    """

    offset: int


@dataclass(frozen=True)
class StylesheetToken(Token):
    url: str = ""
    exec_ms: float = 0.0
    media_print: bool = False


@dataclass(frozen=True)
class ScriptToken(Token):
    """External (``url`` set) or inline (``content`` set) script."""

    url: Optional[str] = None
    content: str = ""
    exec_ms: float = 0.0
    visual_weight: float = 0.0
    is_async: bool = False
    is_defer: bool = False


@dataclass(frozen=True)
class ImageToken(Token):
    url: str = ""
    visual_weight: float = 0.0
    above_fold: bool = True


@dataclass(frozen=True)
class FontToken(Token):
    """``<link rel="preload" as="font">`` reference."""

    url: str = ""
    visual_weight: float = 0.0
    above_fold: bool = True


@dataclass(frozen=True)
class PreloadToken(Token):
    """Generic ``<link rel="preload">`` announcement (non-font ``as``).

    Fonts keep their dedicated :class:`FontToken` — a font reference has
    always been spelled ``rel=preload as=font`` in built pages — so this
    token only ever carries style/script/image/fetch destinations.
    """

    url: str = ""
    as_type: str = ""


@dataclass(frozen=True)
class TextToken(Token):
    """A paragraph of page text contributing visual weight when parsed."""

    visual_weight: float = 0.0


@dataclass(frozen=True)
class HeadEndToken(Token):
    """Emitted at ``</head>``; render can start once CSSOM is ready."""


@dataclass(frozen=True)
class DocumentEndToken(Token):
    """Emitted at ``</html>``."""


def _attrs(raw: bytes) -> Dict[str, str]:
    return {
        key.decode("ascii").lower(): value.decode("utf-8", errors="replace")
        for key, value in _ATTR_RE.findall(raw)
    }


def _annotation(attrs: Dict[str, str], name: str) -> float:
    """A model annotation the site builder writes (``data-vw`` visual
    weight, ``data-exec`` main-thread ms): a finite number ≥ 0, and 0
    when absent or empty."""
    raw = attrs.get(name)
    if not raw:
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"{name}={raw!r} is not a finite number >= 0")
    return value


def _flag(raw: bytes, name: bytes) -> bool:
    return bool(re.search(rb"(?:^|\s)" + name + rb"(?:\s|=|$)", raw))


class HtmlTokenizer:
    """Streaming tokenizer over an append-only byte buffer."""

    def __init__(self):
        self._buffer = bytearray()
        self._scan_pos = 0
        #: While every feed has been the next span of one source: that
        #: source, its token table, and how many tokens were released.
        self._source: Optional[bytes] = None
        self._table: Tuple[Token, ...] = ()
        self._released = 0
        self.bytes_seen = 0

    def feed(self, data: Union[bytes, Span]) -> List[Token]:
        """Append bytes and return all newly completed tokens.

        ``data`` is ``bytes``, or the next :class:`~repro.span.Span` of
        a document arriving by reference, which is looked up in the
        document's token table instead of being scanned.
        """
        if data.__class__ is Span:
            if not self.bytes_seen:
                self._source = data.source
                self._table = document_tokens(data.source)
            if self._source is data.source and data.start == self.bytes_seen:
                return self._release(data.stop)
            data = data.tobytes()
        return self._scan(data)

    def _release(self, seen: int) -> List[Token]:
        self.bytes_seen = seen
        table = self._table
        first = index = self._released
        while index < len(table) and table[index].offset <= seen:
            index += 1
        self._released = index
        return list(table[first:index])

    def _scan(self, data: bytes) -> List[Token]:
        if self._source is not None:
            # The by-reference prefix ends here: resume the scan behind
            # the last token the table released.
            self._buffer += self._source[: self.bytes_seen]
            if self._released:
                self._scan_pos = self._table[self._released - 1].offset
            self._source = None
        self._buffer += data
        self.bytes_seen = len(self._buffer)
        buffer = bytes(self._buffer)
        new_tokens: List[Token] = []
        while True:
            token = self._next_token(buffer)
            if token is None:
                return new_tokens
            new_tokens.append(token)

    # ------------------------------------------------------------------
    def _next_token(self, buffer: bytes) -> Optional[Token]:
        while True:
            start = buffer.find(b"<", self._scan_pos)
            if start == -1:
                return None
            match = _TAG_RE.match(buffer, start)
            if match is None:
                if buffer.find(b">", start) == -1:
                    return None  # tag still incomplete; wait for bytes
                self._scan_pos = start + 1  # not a tag (comment, doctype)
                continue
            closing, tag, raw_attrs, _self_close = match.groups()
            tag = tag.lower()
            end = match.end()
            if closing:
                self._scan_pos = end
                if tag == b"head":
                    return HeadEndToken(offset=end)
                if tag == b"html":
                    return DocumentEndToken(offset=end)
                continue
            token = self._tag_token(tag, raw_attrs, buffer, end)
            if token is _INCOMPLETE:
                return None
            if token is not None:
                return token
            self._scan_pos = end

    def _tag_token(self, tag: bytes, raw_attrs: bytes, buffer: bytes, end: int):
        attrs = _attrs(raw_attrs)
        if tag == b"link":
            return self._link_token(attrs, end)
        if tag == b"script":
            return self._script_token(attrs, raw_attrs, buffer, end)
        if tag == b"img":
            self._scan_pos = end
            return ImageToken(
                offset=end,
                url=attrs.get("src", ""),
                visual_weight=_annotation(attrs, "data-vw"),
                above_fold=attrs.get("data-atf", "1") != "0",
            )
        if tag == b"p":
            close = buffer.find(b"</p>", end)
            if close == -1:
                return _INCOMPLETE
            offset = close + len(b"</p>")
            self._scan_pos = offset
            return TextToken(offset=offset, visual_weight=_annotation(attrs, "data-vw"))
        return None

    def _link_token(self, attrs: Dict[str, str], end: int):
        rel = attrs.get("rel", "").lower()
        self._scan_pos = end
        if rel == "stylesheet":
            return StylesheetToken(
                offset=end,
                url=attrs.get("href", ""),
                exec_ms=_annotation(attrs, "data-exec"),
                media_print=attrs.get("media", "").lower() == "print",
            )
        if rel == "preload" and attrs.get("as", "").lower() == "font":
            return FontToken(
                offset=end,
                url=attrs.get("href", ""),
                visual_weight=_annotation(attrs, "data-vw"),
                above_fold=attrs.get("data-atf", "1") != "0",
            )
        if rel == "preload":
            return PreloadToken(
                offset=end,
                url=attrs.get("href", ""),
                as_type=attrs.get("as", "").lower(),
            )
        return None

    def _script_token(self, attrs: Dict[str, str], raw_attrs: bytes, buffer: bytes, end: int):
        close = buffer.find(b"</script>", end)
        if close == -1:
            return _INCOMPLETE
        offset = close + len(b"</script>")
        self._scan_pos = offset
        return ScriptToken(
            offset=offset,
            url=attrs.get("src") or None,
            content=buffer[end:close].decode("utf-8", errors="replace"),
            exec_ms=_annotation(attrs, "data-exec"),
            visual_weight=_annotation(attrs, "data-vw"),
            is_async=_flag(raw_attrs, b"async"),
            is_defer=_flag(raw_attrs, b"defer"),
        )


#: Sentinel: a tag was recognized but its bytes have not all arrived.
_INCOMPLETE = object()


@functools.lru_cache(maxsize=64)
def document_tokens(source: bytes) -> Tuple[Token, ...]:
    """Every token of the complete document ``source``, in order.

    Memoised per document (a replayed site is loaded many times; the
    cache is bounded, so a long population run keeps only its most
    recent documents).
    """
    return tuple(HtmlTokenizer().feed(source))


def scan_css(text: str) -> List[str]:
    """Extract sub-resource URLs (fonts, images) from a stylesheet."""
    return [url for url in _CSS_URL_RE.findall(text) if url.startswith("http")]


def scan_js(text: str) -> List[str]:
    """Extract dynamically loaded resource URLs from script source."""
    return _JS_LOAD_RE.findall(text)


def scan_exec_hint(text: str) -> float:
    """Read an ``/* exec:N */`` main-thread cost hint from CSS text."""
    match = _EXEC_HINT_RE.search(text)
    return float(match.group(1)) if match else 0.0
