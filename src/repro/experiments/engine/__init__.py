"""Unified experiment engine.

Declare measurements as :class:`Cell`/:class:`Grid`, submit them to an
:class:`ExperimentEngine`, and get results back aligned with the grid —
executed serially (reference behaviour), in parallel across a warm
persistent worker pool, or straight from the two-tier result cache.
"""

from .cache import (
    CACHE_ENV_VAR,
    MemoryResultCache,
    ResultCache,
    default_cache_dir,
)
from .cell import Cell, Grid
from .core import ExperimentEngine
from .executors import (
    Executor,
    SerialExecutor,
    WarmPoolExecutor,
    plan_chunks,
)
from .fingerprint import fingerprint
from .records import CellRecord, ProgressReport

__all__ = [
    "CACHE_ENV_VAR",
    "Cell",
    "CellRecord",
    "Executor",
    "ExperimentEngine",
    "Grid",
    "MemoryResultCache",
    "ProgressReport",
    "ResultCache",
    "SerialExecutor",
    "WarmPoolExecutor",
    "default_cache_dir",
    "fingerprint",
    "plan_chunks",
]
