"""qlog-style JSON export: the one trace artifact format.

The JSON shape follows the spirit of IETF qlog (draft-ietf-quic-qlog):
a top-level document with ``qlog_version`` and a ``traces`` array whose
single entry holds ``common_fields``, run metadata, and the ordered
``events`` list (``{"time": ..., "name": ..., "data": {...}}``).
Serialization is canonical — sorted keys, no whitespace — so the same
run always yields byte-identical output, which is what the determinism
tests pin.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import List

from ..errors import ConfigError
from .core import EVENT_BY_NAME, Trace, TraceEvent

QLOG_VERSION = "0.4"

#: JSON value types accepted per event-field annotation (an integral
#: float such as ``5.0`` may come back from another writer as ``5``).
_FIELD_TYPES = {"float": (int, float), "int": (int,), "bool": (bool,), "str": (str,)}


def to_qlog(trace: Trace) -> dict:
    """Render a finished trace as a qlog-style document."""
    events = [
        {"time": event.t, "name": event.qlog_name, "data": event.data()}
        for event in trace.events
    ]
    return {
        "qlog_version": QLOG_VERSION,
        "qlog_format": "JSON",
        "title": str(trace.meta.get("site", "")),
        "traces": [
            {
                "common_fields": {"time_format": "absolute", "reference_time": 0},
                "vantage_point": {"name": "repro-sim", "type": "network"},
                "meta": trace.meta,
                "events": events,
            }
        ],
    }


def qlog_json(trace: Trace) -> str:
    """Canonical (byte-stable) JSON serialization of :func:`to_qlog`."""
    return json.dumps(to_qlog(trace), sort_keys=True, separators=(",", ":"))


def parse_qlog_events(document: dict) -> Trace:
    """Rebuild a :class:`Trace` from a qlog document (inverse of
    :func:`to_qlog` for every event class).

    Events with an unknown name are skipped (forward compatibility);
    anything else that does not have the exported shape — a missing
    key, a wrong container, a field of the wrong type — raises
    :class:`~repro.errors.ConfigError`.
    """
    events: List[TraceEvent] = []
    try:
        entry = document["traces"][0]
        meta = entry.get("meta", {})
        if not isinstance(meta, dict):
            raise TypeError("meta is not an object")
        for raw in entry["events"]:
            cls = EVENT_BY_NAME.get(raw["name"])
            if cls is None:
                continue
            event = cls(t=raw["time"], **raw["data"])
            for f in fields(cls):
                if type(getattr(event, f.name)) not in _FIELD_TYPES[f.type]:
                    raise TypeError(f"{cls.qlog_name}.{f.name} is not {f.type}")
            events.append(event)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed qlog document: {exc!r}") from None
    return Trace(meta=dict(meta), events=events)
