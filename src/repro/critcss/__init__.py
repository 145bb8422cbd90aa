"""Critical-CSS extraction and deployment rewriting (penthouse role)."""

from .css_model import CssRule, parse_stylesheet, serialize
from .extractor import CriticalSplit, critical_urls, extract_critical
from .rewriter import CRITICAL_PREFIX, REST_PREFIX, optimize_spec, split_stylesheets

__all__ = [
    "CRITICAL_PREFIX",
    "CriticalSplit",
    "CssRule",
    "REST_PREFIX",
    "critical_urls",
    "extract_critical",
    "optimize_spec",
    "parse_stylesheet",
    "serialize",
    "split_stylesheets",
]
