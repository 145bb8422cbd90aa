"""Outside-in cost attribution: spans, a stack sampler, a call counter.

Nothing here touches the program under measurement.  A frame is charged
to a *layer* by its source path alone: ``<package root>/<layer>/...``
is layer ``<layer>``, a module directly under the package root is
``misc``, and a stack with no package frame at all is ``other``.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

#: Layers reported by name; any other package directory is folded into
#: ``misc`` in the fixed-name metric set (and printed under its own name
#: by the full ledger run when it has samples).
LAYERS = (
    "sim",
    "netsim",
    "h2",
    "server",
    "browser",
    "html",
    "sites",
    "replay",
    "strategies",
    "critcss",
    "experiments",
    "metrics",
    "mechanisms",
    "trace",
)
MISC = "misc"
OTHER = "other"
REPORTED_LAYERS = LAYERS + (MISC, OTHER)

#: CPU time between two ``SIGPROF`` samples.
SAMPLE_INTERVAL_S = 0.002


class LayerMap:
    """Source path -> layer name, memoised per filename."""

    def __init__(self, package_root: str):
        self._root = os.path.join(os.path.abspath(package_root), "")
        self._cache: Dict[str, Optional[str]] = {}

    def layer_of(self, filename: str) -> Optional[str]:
        """Layer owning ``filename``; ``None`` outside the package."""
        try:
            return self._cache[filename]
        except KeyError:
            pass
        layer: Optional[str] = None
        if filename.startswith(self._root):
            head, _, rest = filename[len(self._root):].partition(os.sep)
            layer = head if rest else MISC
        self._cache[filename] = layer
        return layer


def fold_layers(counts: Dict[str, float]) -> Dict[str, float]:
    """Collapse unlisted package names into ``misc``; fill zeros."""
    folded = {name: 0.0 for name in REPORTED_LAYERS}
    for name, value in counts.items():
        folded[name if name in folded else MISC] += value
    return folded


class StackSampler:
    """``SIGPROF`` sampler charging CPU time to layers.

    Each sample's *self* layer is the innermost package frame on the
    stack (C and stdlib time lands on the layer that called it); every
    distinct layer anywhere on the stack is *inclusively* busy.
    """

    def __init__(self, layers: LayerMap):
        self._layers = layers
        self.self_samples: Dict[str, int] = {}
        self.incl_samples: Dict[str, int] = {}
        self.total = 0
        self._previous = None

    def charge(self, filenames: Iterable[str]) -> None:
        """Account one sample; ``filenames`` run innermost to outermost."""
        layer_of = self._layers.layer_of
        owner = None
        seen = set()
        for filename in filenames:
            layer = layer_of(filename)
            if layer is None:
                continue
            if owner is None:
                owner = layer
            seen.add(layer)
        owner = owner or OTHER
        self.total += 1
        self.self_samples[owner] = self.self_samples.get(owner, 0) + 1
        for layer in seen or (OTHER,):
            self.incl_samples[layer] = self.incl_samples.get(layer, 0) + 1

    def _on_signal(self, _signum, frame) -> None:
        self.charge(_filenames(frame))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)


def _filenames(frame) -> Iterator[str]:
    while frame is not None:
        yield frame.f_code.co_filename
        frame = frame.f_back


class CallCounter:
    """Python-level calls per layer under ``sys.setprofile``.

    Only ``call`` events are counted (C calls are not), so the totals
    are a property of the code path alone and repeat exactly.
    """

    def __init__(self, layers: LayerMap):
        self._layers = layers
        self._by_code: Dict[object, str] = {}
        self.calls: Dict[str, int] = {}

    def _on_event(self, frame, event, _arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        layer = self._by_code.get(code)
        if layer is None:
            layer = self._layers.layer_of(code.co_filename) or OTHER
            self._by_code[code] = layer
        self.calls[layer] = self.calls.get(layer, 0) + 1

    @contextmanager
    def counting(self):
        sys.setprofile(self._on_event)
        try:
            yield self
        finally:
            sys.setprofile(None)


class Spans:
    """In-memory span log: name, start, end, and the causing span."""

    def __init__(self):
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **tags):
        index = len(self.records)
        record = {
            "id": index,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(tags)
        self.records.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str) -> List[float]:
        return [
            (record["end"] - record["start"]) * 1000.0
            for record in self.records
            if record["name"] == name and record["end"] is not None
        ]
