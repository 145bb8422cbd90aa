"""Deterministic world snapshot/fork support for the simulation cores.

A replayed page load is one closed object graph: the simulator's
calendar queue (and the fastcore's timer lanes) hold callbacks whose
closures and bound methods reach every live model object — TCP and
QUIC connections, congestion state, the impairment RNGs, H1/H2 stream
buffers, the browser engine, the trace sink.  Capturing *the queue
plus a handful of explicit roots* with one shared memo therefore
captures the full deterministic state of a run, and materializing a
copy yields an independent world that continues bit-for-bit like the
original — the mechanism behind fork-point replay (DESIGN §14).

``copy.deepcopy`` cannot be used directly, for three reasons this
module's :func:`fork_copy` addresses:

* **Closures are state.**  ``deepcopy`` treats functions as atomic,
  but the queue is full of closures (``lambda: callback(arg1)``,
  ``lambda sid, headers, prio: self._on_request(...)``) whose cells
  reference mutable model objects.  ``fork_copy`` rebuilds closure
  functions with fresh cells whose contents are copied through the
  same memo, so a forked world's events dispatch into the forked
  model, never back into the original.
* **Identity is semantics.**  Sentinels compared with ``is``
  (``_NO_ARG``, the browser's inline-fetch sentinel) must keep their
  identity across the copy; plain ``object()`` instances and
  registered sentinels pass through unchanged.
* **Not everything copies.**  RNGs are cloned via ``getstate``; enums,
  compiled patterns, structs, and modules stay shared.

Classes may declare ``_fork_atomic = True`` to mark their instances
read-only-during-replay; such objects (the record database, built
sites, network conditions, certificates, and the ``Span`` windows
through which response bodies travel by reference) are shared between forks
instead of copied — both a correctness statement and the reason a
fork costs a small fraction of building the world from scratch.
"""

from __future__ import annotations

import enum
import random
import re
import struct
import types
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from ..errors import SnapshotError

__all__ = ["SimSnapshot", "SnapshotError", "fork_copy", "new_memo"]


#: Types whose instances are immutable (or semantically shared) and
#: pass through a fork unchanged.  ``object`` covers bare sentinel
#: instances such as :data:`repro.sim.events._NO_ARG`.
_ATOMIC_TYPES = frozenset(
    {
        type(None),
        type(NotImplemented),
        type(Ellipsis),
        bool,
        int,
        float,
        complex,
        str,
        bytes,
        range,
        slice,
        object,
        type,
        types.ModuleType,
        types.CodeType,
        types.BuiltinFunctionType,
        types.BuiltinMethodType,
        types.MethodDescriptorType,
        types.WrapperDescriptorType,
        types.GetSetDescriptorType,
        property,
        staticmethod,
        classmethod,
        re.Pattern,
        struct.Struct,
    }
)

_MISSING = object()


def _identity_preserved() -> Tuple[object, ...]:
    """Instance sentinels that must keep their identity across forks.

    These are module-level singletons compared with ``is`` by model
    code; lazy imports keep :mod:`repro.sim` free of upward deps.
    """
    sentinels = []
    try:
        from ..browser.engine import _INLINE_SENTINEL

        sentinels.append(_INLINE_SENTINEL)
    except Exception:  # pragma: no cover - browser always importable
        pass
    return tuple(sentinels)


def new_memo(shared: Iterable[object] = ()) -> Dict[int, Any]:
    """A fork memo pre-seeded with identity-preserved objects.

    ``shared`` adds caller-known read-only roots (beyond the
    ``_fork_atomic`` protocol) that every fork should alias rather
    than copy.
    """
    memo: Dict[int, Any] = {}
    for sentinel in _identity_preserved():
        memo[id(sentinel)] = sentinel
    for obj in shared:
        memo[id(obj)] = obj
    return memo


# ----------------------------------------------------------------------
# the copier
# ----------------------------------------------------------------------
def _copy_list(obj: list, memo: dict) -> list:
    new: list = []
    memo[id(obj)] = new
    append = new.append
    for item in obj:
        append(fork_copy(item, memo))
    return new


def _copy_tuple(obj: tuple, memo: dict) -> tuple:
    new = tuple(fork_copy(item, memo) for item in obj)
    # A cycle through a contained mutable may have copied this tuple
    # already (deepcopy's classic re-entrancy); keep the first copy.
    return memo.setdefault(id(obj), new)


def _copy_dict(obj: dict, memo: dict) -> dict:
    new = obj.__class__() if obj.__class__ is not dict else {}
    memo[id(obj)] = new
    for key, value in obj.items():
        new[fork_copy(key, memo)] = fork_copy(value, memo)
    return new


def _copy_set(obj: set, memo: dict) -> set:
    new: set = obj.__class__()
    memo[id(obj)] = new
    for item in obj:
        new.add(fork_copy(item, memo))
    return new


def _copy_frozenset(obj: frozenset, memo: dict) -> frozenset:
    new = frozenset(fork_copy(item, memo) for item in obj)
    return memo.setdefault(id(obj), new)


def _copy_deque(obj: deque, memo: dict) -> deque:
    new: deque = deque((), obj.maxlen) if obj.maxlen is not None else deque()
    memo[id(obj)] = new
    append = new.append
    for item in obj:
        append(fork_copy(item, memo))
    return new


def _copy_bytearray(obj: bytearray, memo: dict) -> bytearray:
    new = bytearray(obj)
    memo[id(obj)] = new
    return new


def _copy_method(obj: types.MethodType, memo: dict) -> types.MethodType:
    new = types.MethodType(obj.__func__, fork_copy(obj.__self__, memo))
    return memo.setdefault(id(obj), new)


def _copy_cell(obj: types.CellType, memo: dict) -> types.CellType:
    new = types.CellType()
    memo[id(obj)] = new
    try:
        value = obj.cell_contents
    except ValueError:  # empty cell
        return new
    new.cell_contents = fork_copy(value, memo)
    return new


def _copy_function(obj: types.FunctionType, memo: dict) -> types.FunctionType:
    closure = obj.__closure__
    if closure is None:
        # Module-level and closure-free local functions carry no
        # per-world state; share them (their defaults are config, not
        # model state, throughout this codebase).
        memo[id(obj)] = obj
        return obj
    # Build empty cells first so a self-referential closure (a cell
    # containing the function itself) resolves through the memo.
    new_cells = []
    fill: list = []
    for cell in closure:
        existing = memo.get(id(cell), _MISSING)
        if existing is not _MISSING:
            new_cells.append(existing)
        else:
            fresh = types.CellType()
            memo[id(cell)] = fresh
            new_cells.append(fresh)
            fill.append((cell, fresh))
    new = types.FunctionType(
        obj.__code__,
        obj.__globals__,
        obj.__name__,
        obj.__defaults__,
        tuple(new_cells),
    )
    if obj.__kwdefaults__:
        new.__kwdefaults__ = obj.__kwdefaults__
    memo[id(obj)] = new
    for cell, fresh in fill:
        try:
            value = cell.cell_contents
        except ValueError:
            continue
        fresh.cell_contents = fork_copy(value, memo)
    return new


def _copy_random(obj: random.Random, memo: dict) -> random.Random:
    new = obj.__class__()
    new.setstate(obj.getstate())
    memo[id(obj)] = new
    return new


_DISPATCH: Dict[type, Callable[[Any, dict], Any]] = {
    list: _copy_list,
    tuple: _copy_tuple,
    dict: _copy_dict,
    OrderedDict: _copy_dict,
    set: _copy_set,
    frozenset: _copy_frozenset,
    deque: _copy_deque,
    bytearray: _copy_bytearray,
    types.MethodType: _copy_method,
    types.CellType: _copy_cell,
    types.FunctionType: _copy_function,
    types.LambdaType: _copy_function,
    random.Random: _copy_random,
}


def fork_copy(obj: Any, memo: Dict[int, Any]) -> Any:
    """Deep-copy ``obj`` for a fork, sharing everything shareable.

    The single ``memo`` preserves aliasing: two references to one
    mutable object in the source world become two references to one
    copy in the fork, which is what keeps event handles, timer lanes,
    and connection back-references consistent.
    """
    cls = obj.__class__
    if cls in _ATOMIC_TYPES:
        return obj
    oid = id(obj)
    existing = memo.get(oid, _MISSING)
    if existing is not _MISSING:
        return existing
    handler = _DISPATCH.get(cls)
    if handler is not None:
        return handler(obj, memo)
    # Subclass and instance fall-through.
    if isinstance(obj, enum.Enum):
        memo[oid] = obj
        return obj
    if isinstance(obj, random.Random):
        return _copy_random(obj, memo)
    if isinstance(obj, list):
        new = cls()
        memo[oid] = new
        for item in obj:
            new.append(fork_copy(item, memo))
        return new
    if isinstance(obj, dict):
        return _copy_dict(obj, memo)
    if isinstance(obj, (set, frozenset)):
        return (
            _copy_set(obj, memo)
            if isinstance(obj, set)
            else _copy_frozenset(obj, memo)
        )
    if isinstance(obj, tuple):
        new = cls(fork_copy(item, memo) for item in obj)
        return memo.setdefault(oid, new)
    return _copy_instance(obj, memo)


def _copy_instance(obj: Any, memo: dict) -> Any:
    cls = obj.__class__
    if getattr(cls, "_fork_atomic", False):
        memo[id(obj)] = obj
        return obj
    try:
        new = object.__new__(cls)
    except TypeError as exc:
        raise SnapshotError(
            f"cannot fork an instance of {cls.__module__}.{cls.__qualname__}: "
            f"{exc}; mark the class _fork_atomic if it is read-only during "
            "replay, or register a handler in repro.sim.snapshot"
        ) from exc
    memo[id(obj)] = new
    state = getattr(obj, "__dict__", None)
    if state is not None:
        fresh = new.__dict__
        for key, value in state.items():
            fresh[key] = fork_copy(value, memo)
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__")
        if not slots:
            continue
        if isinstance(slots, str):
            slots = (slots,)
        for slot in slots:
            if slot in ("__dict__", "__weakref__"):
                continue
            try:
                value = getattr(obj, slot)
            except AttributeError:
                continue
            object.__setattr__(new, slot, fork_copy(value, memo))
    return new


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
def _clone_sim(sim: Any, memo: Dict[int, Any]) -> Any:
    """Copy a simulator and (through its queue) the world it drives."""
    cls = sim.__class__
    clone = object.__new__(cls)
    # The memo entry must exist before the queue is walked: every model
    # object holding `self.sim` then lands on the clone.
    memo[id(sim)] = clone
    for attr in cls._SNAPSHOT_ATTRS:
        object.__setattr__(clone, attr, fork_copy(getattr(sim, attr), memo))
    for attr, value in cls._SNAPSHOT_RESET:
        object.__setattr__(clone, attr, value)
    return clone


class SimSnapshot:
    """Full deterministic state of a paused simulation, forkable K ways.

    Captured by ``Simulator.snapshot()`` / ``FastSimulator.snapshot()``
    on a non-running simulator.  Each :meth:`fork` (or the cores'
    ``resume`` classmethod) materializes an independent
    ``(simulator, roots)`` pair that continues bit-for-bit like the
    original would have — same sequence numbers, same dispatch order,
    same RNG streams.

    ``freeze=True`` (the default) copies the world at capture time, so
    the source may keep running afterwards.  ``freeze=False`` aliases
    the live world instead — one copy cheaper per lifecycle — and is
    only sound when the caller abandons the source (the fork-point
    testbed does exactly that).
    """

    __slots__ = ("_sim", "_roots", "_shared", "sim_class", "forks")

    def __init__(self, sim: Any, roots: Any, shared: Tuple[object, ...]):
        self._sim = sim
        self._roots = roots
        self._shared = shared
        self.sim_class = sim.__class__
        self.forks = 0

    @classmethod
    def capture(
        cls,
        sim: Any,
        roots: Any = None,
        shared: Iterable[object] = (),
        freeze: bool = True,
    ) -> "SimSnapshot":
        if getattr(sim, "_running", False):
            raise SnapshotError(
                "cannot snapshot a running simulator; call from outside "
                "run() (stop() first from inside an event)"
            )
        shared = tuple(shared)
        if not freeze:
            return cls(sim, roots, shared)
        memo = new_memo(shared)
        return cls(_clone_sim(sim, memo), fork_copy(roots, memo), shared)

    def fork(self) -> Tuple[Any, Any]:
        """Materialize one independent ``(simulator, roots)`` world."""
        memo = new_memo(self._shared)
        sim = _clone_sim(self._sim, memo)
        roots = fork_copy(self._roots, memo)
        self.forks += 1
        return sim, roots
