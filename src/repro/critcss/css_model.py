"""A rule-level CSS model.

The extractor needs to split real stylesheet text into the rules needed
for above-the-fold rendering and the rest.  Stylesheets produced by the
site builder mark ATF-relevant rules with an ``/*atf*/`` annotation
(the stand-in for penthouse's headless-browser viewport analysis); any
other text parses as generic rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

_RULE_RE = re.compile(r"(/\*[^*]*\*/|@[a-z-]+[^{]*\{[^}]*\}|[^{}/@]+\{[^}]*\})", re.DOTALL)


@dataclass
class CssRule:
    """One parsed stylesheet item (rule, at-rule, or comment)."""

    text: str
    is_comment: bool = False
    is_font_face: bool = False
    above_fold: bool = False

    @property
    def size(self) -> int:
        return len(self.text)

    @property
    def urls(self) -> List[str]:
        return re.findall(r"url\(\s*['\"]?([^'\")]+)['\"]?\s*\)", self.text)


def parse_stylesheet(text: str) -> List[CssRule]:
    """Split stylesheet text into rules (lossless up to whitespace)."""
    rules: List[CssRule] = []
    for match in _RULE_RE.finditer(text):
        chunk = match.group(0).strip()
        if not chunk:
            continue
        is_comment = chunk.startswith("/*")
        is_font_face = chunk.startswith("@font-face")
        above_fold = "/*atf*/" in chunk or "atf" in chunk.split("{", 1)[0]
        if is_font_face and "font-family:atf" in chunk:
            # The builder names ATF-relevant font families "atf...".
            above_fold = True
        rules.append(
            CssRule(
                text=chunk,
                is_comment=is_comment,
                is_font_face=is_font_face,
                above_fold=above_fold,
            )
        )
    return rules


def serialize(rules: List[CssRule]) -> str:
    return "\n".join(rule.text for rule in rules)
