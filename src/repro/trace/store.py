"""Checksummed on-disk trace artifacts, stored beside the result cache.

Per-run qlog exports are written under ``<dir>/traces/<key[:2]>/
<key>.run<N>.qlog`` where ``key`` is the owning cell's content-address
(:meth:`Cell.key`).  Artifacts are :mod:`repro.checksummed` files, the
same framing and write discipline as the result cache: corrupt or
foreign files are quarantined as ``*.corrupt`` with a logged warning
and treated as missing, so the engine simply re-traces the run
(recomputation is bit-identical by the determinism contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .. import checksummed

TRACE_MAGIC = b"RPTR1\n"


@dataclass(frozen=True)
class TraceSpec:
    """Cell-level opt-in: where to store per-run trace artifacts.

    Attached to :class:`repro.experiments.engine.Cell` via its
    ``trace=`` field; deliberately **excluded** from the cell cache key
    so turning tracing on or off never changes which cached results a
    grid hits.
    """

    #: Root directory; artifacts land under ``<dir>/traces/``.
    dir: str


class TraceStore:
    """Load/store per-run qlog artifacts with integrity checking."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def path(self, key: str, run_index: int) -> Path:
        return self.root / "traces" / key[:2] / f"{key}.run{run_index}.qlog"

    def store(self, key: str, run_index: int, payload: bytes) -> None:
        checksummed.write(self.path(key, run_index), TRACE_MAGIC, payload)

    def load(self, key: str, run_index: int) -> Optional[bytes]:
        """Return the artifact payload, or ``None`` if absent/corrupt."""
        return checksummed.read(self.path(key, run_index), TRACE_MAGIC)

    def has_all(self, key: str, runs: int) -> bool:
        return all(
            self.load(key, run_index) is not None for run_index in range(runs)
        )
