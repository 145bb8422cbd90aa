"""Checksummed, atomically written files.

The one on-disk discipline of the package, used by the result cache
(:mod:`repro.experiments.engine.cache`) and the trace store
(:mod:`repro.trace.store`), and sitting below both in the import graph.

A framed file is ``magic + SHA-256(payload) + payload``.  :func:`write`
goes through a temp file, ``fsync`` and ``os.replace``, so a killed run
never leaves a partial file under the final name.  :func:`read`
validates magic and digest and **quarantines** whatever fails — renamed
to ``*.corrupt`` with a logged warning — and reports it as missing, so
the caller recomputes instead of the corruption being swallowed.
"""

from __future__ import annotations

import hashlib
import logging
import os
import tempfile
from pathlib import Path
from typing import Optional

logger = logging.getLogger("repro.checksummed")

_DIGEST_SIZE = hashlib.sha256().digest_size


def write(path: Path, magic: bytes, payload: bytes) -> None:
    """Frame ``payload`` under ``magic`` and write it atomically."""
    atomic_write(path, magic + hashlib.sha256(payload).digest() + payload)


def read(path: Path, magic: bytes) -> Optional[bytes]:
    """The payload of a framed file; ``None`` if absent or quarantined."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    header = len(magic) + _DIGEST_SIZE
    if len(data) < header or not data.startswith(magic):
        quarantine(path, "missing or foreign header")
        return None
    payload = data[header:]
    if hashlib.sha256(payload).digest() != data[len(magic) : header]:
        quarantine(path, "checksum mismatch (truncated or corrupt)")
        return None
    return payload


def quarantine(path: Path, reason: str) -> None:
    """Move a bad file aside so its content is recomputed, loudly."""
    quarantined = path.with_suffix(path.suffix + ".corrupt")
    try:
        os.replace(path, quarantined)
    except OSError:
        quarantined = path  # couldn't move it; report in place
    logger.warning(
        "%s is invalid (%s); quarantined as %s and recomputing",
        path,
        reason,
        quarantined,
    )


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` via temp file + ``fsync`` + ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
