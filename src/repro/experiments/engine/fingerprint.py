"""Stable content fingerprints for experiment cells.

The result cache is *content-addressed*: a finished cell is stored
under a key derived from everything that determines its outcome — the
website spec, the strategy configuration, the network conditions, the
repetition count, and the seed base.  Two cells with the same key are
guaranteed to produce bit-identical results — a ``RepeatedResult`` or
a ``CellSummary``, as the cell's reducer decides — because the testbed
is deterministic, so a hit can be returned without re-running.

Fingerprinting walks arbitrary experiment objects (dataclasses, plain
objects, enums, containers) into a canonical JSON document and hashes
it with SHA-256.  Object *types* are part of the document, so two
strategies with identical attribute dicts but different classes hash
differently.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from typing import Any

#: Bump when the cell execution semantics change in a way that makes
#: previously cached results stale (e.g. seed derivation changes).
FORMAT_VERSION = 1


def jsonable(value: Any) -> Any:
    """Convert ``value`` to a deterministic JSON-serializable form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{type(value).__name__}.{value.name}"}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [jsonable(item) for item in value]
        # Sort by canonical encoding: set elements may be dicts (enums,
        # nested objects), which do not order among themselves.
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"__set__": items}
    if isinstance(value, dict):
        return {
            "__dict__": [
                [jsonable(key), jsonable(value[key])]
                for key in sorted(value, key=repr)
            ]
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # A dataclass may declare FINGERPRINT_NEUTRAL (a plain class
        # attribute, not a field): fields whose value equals their
        # neutral default are omitted from the document.  This is how
        # later-added knobs (e.g. ``NetworkConditions.transport``) stay
        # out of every historical fingerprint — a cell that does not
        # exercise the knob keeps its exact pre-knob cache key, the
        # same convention ``Cell.key`` uses for ``reduce``.
        neutral = getattr(type(value), "FINGERPRINT_NEUTRAL", None)
        fields = {}
        for name in _field_names(type(value)):
            item = getattr(value, name)
            if neutral is not None and name in neutral and item == neutral[name]:
                continue
            fields[name] = jsonable(item)
        return {"__type__": _type_name(value), **fields}
    if hasattr(value, "__dict__"):
        # Plain objects (strategies, condition samplers): type + state.
        state = {key: jsonable(val) for key, val in sorted(vars(value).items())}
        return {"__type__": _type_name(value), **state}
    raise TypeError(f"cannot fingerprint {type(value).__name__}: {value!r}")


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple:
    """A dataclass's field names, computed once per class.

    ``dataclasses.fields`` builds its tuple from a generator on every
    call, and each such tuple is freed onto the interpreter's free list
    for its final size after being taken from the one for size 10, so
    a study that fingerprints thousands of cells grows those lists by
    one tuple per call.
    """
    return tuple(field.name for field in dataclasses.fields(cls))


def _type_name(value: Any) -> str:
    cls = type(value)
    return f"{cls.__module__}.{cls.__qualname__}"


def fingerprint(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``value``."""
    document = {"version": FORMAT_VERSION, "value": jsonable(value)}
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
