"""The browser model (Chromium-64-like critical rendering path)."""

from .cache import BrowserCache
from .engine import BrowserConfig, PageLoad
from .waterfall import render_waterfall
from .main_thread import MainThread
from .priorities import (
    WEIGHT_ASYNC_JS,
    WEIGHT_CSS,
    WEIGHT_FONT,
    WEIGHT_IMAGE,
    WEIGHT_MAIN,
    WEIGHT_OTHER,
    WEIGHT_SYNC_JS,
    weight_for,
)
from .timings import PageTimeline, PaintEvent, RequestTrace

__all__ = [
    "BrowserCache",
    "BrowserConfig",
    "MainThread",
    "PageLoad",
    "PageTimeline",
    "PaintEvent",
    "RequestTrace",
    "WEIGHT_ASYNC_JS",
    "WEIGHT_CSS",
    "WEIGHT_FONT",
    "WEIGHT_IMAGE",
    "WEIGHT_MAIN",
    "WEIGHT_OTHER",
    "WEIGHT_SYNC_JS",
    "render_waterfall",
    "weight_for",
]
