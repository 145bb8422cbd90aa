"""Batch-steppable fastcore event engine.

Drop-in replacement for the heap-only oracle in
:mod:`repro.sim.events`, selected via ``REPRO_CORE`` (see
:mod:`repro.core`).  Three structural changes carry the speedup; none
of them may change observable behaviour:

* **Timer lanes** — retransmission and delayed-ACK timers are armed by
  the tens of thousands per replay and almost always cancelled before
  they fire.  On the oracle every one is a ``heappush`` plus a
  tombstone ``heappop``.  A :class:`TimerLane` is a monotonic deque:
  deadlines of one timer class arrive in non-decreasing order, so
  arming is an O(1) append, cancelling is an O(1) tombstone that is
  dropped from the *front* (never scanned), and the heap is bypassed
  entirely.  A deadline that would break monotonicity (e.g. an RTO
  shrinking mid-connection) falls back to the main heap, keeping the
  lane invariant trivially true.
* **No-handle scheduling** — fire-and-forget events (segment/ACK
  arrivals) skip the :class:`EventHandle` allocation and can carry up
  to two callback arguments inline in the queue entry, replacing a
  closure allocation per packet.
* **Batch dispatch** — the run loop pins the (time, priority, seq)
  ordering contract of the oracle but drains same-timestamp runs
  without re-checking the ``until`` horizon, and caches the minimum
  lane front so the steady-state cost of lanes is one list compare.

Events are plain 8-slot lists ``[time, priority, seq, callback,
cancelled, popped, arg1, arg2]`` — a superset of the oracle's 6-slot
layout, so the oracle's :class:`EventHandle` works unchanged on both.
Sequence numbers are allocated globally in schedule-call order exactly
as the oracle does, which makes the dispatch order of the merged
heap+lanes structure bit-identical to the oracle's single heap (the
fastcore-vs-oracle identity suite asserts this on random schedules).

This module is written in the mypyc-friendly subset of Python (module
level functions and ``__slots__``/attribute access only on known
types); ``pip install -e .[fast]`` compiles it when mypyc is available.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, List, Optional

from ..errors import SimulationError
from .events import DEFAULT_PRIORITY, _NO_ARG, EventHandle, LaneTimer

__all__ = ["FastSimulator", "LaneTimer", "TimerLane"]


class TimerLane:
    """A monotonic-deadline timer class bound to one :class:`FastSimulator`.

    Guarantees O(1) arm and O(1) cancel for timers whose deadlines are
    scheduled in non-decreasing order (the common case for a single
    timer class on one connection: ``now`` is monotone and the timeout
    value drifts slowly).  Non-monotonic deadlines transparently fall
    back to the simulator's main heap.
    """

    __slots__ = ("_sim", "_dq")

    def __init__(self, sim: "FastSimulator"):
        self._sim = sim
        self._dq: deque = deque()

    def schedule(
        self,
        delay: float,
        callback: Callable,
        arg1=_NO_ARG,
        arg2=_NO_ARG,
    ) -> EventHandle:
        """Arm a timer ``delay`` ms from now; returns a cancellable handle."""
        sim = self._sim
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        when = sim.now + delay
        seq = sim._seq + 1
        sim._seq = seq
        event = [when, DEFAULT_PRIORITY, seq, callback, False, False, arg1, arg2]
        dq = self._dq
        if dq:
            if dq[-1][0] <= when:
                dq.append(event)
            else:
                # Out-of-order deadline: main heap keeps lane fronts
                # monotone without any scanning.
                heappush(sim._queue, event)
                sim._live_events += 1
                return EventHandle(event, sim)
        else:
            dq.append(event)
            # This lane was empty, so its front just changed: the
            # cached lane minimum may now be stale.
            lane_best = sim._lane_best
            if lane_best is not None and event < lane_best:
                sim._lane_best = event
                sim._lane_best_dq = dq
        sim._live_events += 1
        return EventHandle(event, sim)

    def schedule_call_abs(self, when: float, callback: Callable, arg1=_NO_ARG, arg2=_NO_ARG) -> None:
        """Fire-and-forget absolute-time schedule through this lane.

        Used by links: on a clean link, segment arrival times are
        monotone (serialization is FIFO and the propagation delay is
        constant), so per-segment delivery events bypass the heap the
        same way timers do.  Jitter or impairment-induced reordering
        falls back to the heap per event.
        """
        sim = self._sim
        if when < sim.now:
            raise SimulationError(
                f"cannot schedule event in the past (delay={when - sim.now})"
            )
        seq = sim._seq + 1
        sim._seq = seq
        event = [when, DEFAULT_PRIORITY, seq, callback, False, False, arg1, arg2]
        dq = self._dq
        if dq:
            if dq[-1][0] <= when:
                dq.append(event)
            else:
                heappush(sim._queue, event)
                sim._live_events += 1
                return
        else:
            dq.append(event)
            lane_best = sim._lane_best
            if lane_best is not None and event < lane_best:
                sim._lane_best = event
                sim._lane_best_dq = dq
        sim._live_events += 1

    def timer(self, callback: Callable) -> "LaneTimer":
        """A restartable one-shot timer armed through this lane."""
        return LaneTimer(self, callback)

    def __len__(self) -> int:
        return len(self._dq)


class FastSimulator:
    """Batch-steppable calendar queue; bit-identical to the oracle.

    API-compatible with :class:`repro.sim.events.Simulator`; see the
    module docstring for the structural differences.
    """

    #: Snapshot inventory (see :mod:`repro.sim.snapshot`): the heap,
    #: the lane deques, and the counters.  TimerLane objects reached
    #: through model callbacks alias the same deques via the shared
    #: fork memo, so lane membership survives a fork intact.  The
    #: lane-minimum cache is deliberately absent: run() resets it to
    #: None on every exit (see the finally below), so a snapshot taken
    #: between runs never sees a live cache.
    _SNAPSHOT_ATTRS = (
        "_queue",
        "_lanes",
        "_seq",
        "now",
        "_events_processed",
        "_live_events",
    )
    _SNAPSHOT_RESET = (
        ("_running", False),
        ("_stopped", False),
        ("_lane_best", None),
        ("_lane_best_dq", None),
    )

    def __init__(self):
        self._queue: List[list] = []
        self._lanes: List[deque] = []
        #: Cached minimum among lane fronts (None = recompute lazily).
        self._lane_best: Optional[list] = None
        self._lane_best_dq: Optional[deque] = None
        self._seq = 0
        #: Current simulated time in milliseconds.  A plain attribute (the
        #: per-packet paths read it thousands of times per load); only
        #: ``run`` assigns it.
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._live_events = 0

    # ------------------------------------------------------------------
    # oracle-compatible public surface
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_processed

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        seq = self._seq + 1
        self._seq = seq
        event = [self.now + delay, priority, seq, callback, False, False, _NO_ARG, _NO_ARG]
        heappush(self._queue, event)
        self._live_events += 1
        return EventHandle(event, self)

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        return self.schedule(when - self.now, callback, priority)

    def call_soon(self, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at the current instant (after queued work)."""
        return self.schedule(0.0, callback)

    def schedule_call(self, delay: float, callback: Callable, arg1=_NO_ARG, arg2=_NO_ARG) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, inline arguments.

        The hot packet paths use this to avoid one :class:`EventHandle`
        and one closure allocation per event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        seq = self._seq + 1
        self._seq = seq
        heappush(
            self._queue,
            [self.now + delay, DEFAULT_PRIORITY, seq, callback, False, False, arg1, arg2],
        )
        self._live_events += 1

    def schedule_call_at(self, when: float, callback: Callable, arg1=_NO_ARG, arg2=_NO_ARG) -> None:
        """Absolute-time :meth:`schedule_call`."""
        self.schedule_call(when - self.now, callback, arg1, arg2)

    def timer_lane(self) -> TimerLane:
        """Allocate a dedicated monotonic timer lane."""
        lane = TimerLane(self)
        self._lanes.append(lane._dq)
        return lane

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of queued, non-cancelled events (O(1) live counter)."""
        return self._live_events

    def snapshot(self, roots=None, shared=(), freeze: bool = True):
        """Capture the full deterministic state as a :class:`SimSnapshot`.

        Oracle-compatible; see :meth:`repro.sim.events.Simulator.snapshot`.
        """
        from .snapshot import SimSnapshot

        return SimSnapshot.capture(self, roots, shared, freeze)

    @classmethod
    def resume(cls, snapshot):
        """Materialize one fork of ``snapshot``; returns ``(sim, roots)``."""
        if snapshot.sim_class is not cls:
            raise SimulationError(
                f"snapshot was captured from {snapshot.sim_class.__name__}, "
                f"cannot resume as {cls.__name__}"
            )
        return snapshot.fork()

    # ------------------------------------------------------------------
    # dispatch loop
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 50_000_000,
        stop_after_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or stopped.

        Dispatch order is exactly the oracle's: global (time, priority,
        seq) across the heap and every lane.  ``stop_after_events``
        pauses at an event boundary exactly as the oracle does.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        queue = self._queue
        lanes = self._lanes
        no_arg = _NO_ARG
        try:
            while True:
                # As in the oracle, a stopped or paused run leaves the
                # clock at its last event: these checks come before the
                # emptiness test because tombstones are peeled earlier
                # here than on the oracle's single heap.
                if self._stopped:
                    break
                if (
                    stop_after_events is not None
                    and self._events_processed >= stop_after_events
                ):
                    break
                if not queue:
                    for dq in lanes:
                        if dq:
                            break
                    else:
                        if until is not None and until > self.now:
                            self.now = until
                        break
                # Heap head, tombstones peeled.
                while queue:
                    head = queue[0]
                    if head[4]:
                        heappop(queue)
                        head[5] = True
                    else:
                        break
                best = queue[0] if queue else None
                # Lane minimum: recompute only when the cache is stale
                # (cancelled, consumed, or never computed); otherwise it
                # costs one flag check.  TimerLane.schedule keeps the
                # cache fresh across appends to empty lanes.
                lane_best = self._lane_best
                if lane_best is None or lane_best[4] or lane_best[5]:
                    lane_best = None
                    lane_dq = None
                    for dq in lanes:
                        while dq:
                            front = dq[0]
                            if front[4]:
                                dq.popleft()
                                front[5] = True
                            else:
                                if lane_best is None or front < lane_best:
                                    lane_best = front
                                    lane_dq = dq
                                break
                    self._lane_best = lane_best
                    self._lane_best_dq = lane_dq
                if lane_best is not None and (best is None or lane_best < best):
                    event = lane_best
                    event_time = event[0]
                    if until is not None and event_time > until:
                        self.now = until
                        return self.now
                    self._lane_best_dq.popleft()
                    self._lane_best = None
                else:
                    if best is None:
                        if until is not None and until > self.now:
                            self.now = until
                        return self.now
                    event = best
                    event_time = event[0]
                    if until is not None and event_time > until:
                        self.now = until
                        return self.now
                    heappop(queue)
                event[5] = True
                self._live_events -= 1
                self.now = event_time
                processed = self._events_processed + 1
                self._events_processed = processed
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; likely a model loop"
                    )
                arg1 = event[6]
                if arg1 is no_arg:
                    event[3]()
                elif event[7] is no_arg:
                    event[3](arg1)
                else:
                    event[3](arg1, event[7])
        finally:
            self._running = False
            # Drop the lane-minimum cache on exit: a stale cached event
            # would otherwise chain sim -> event -> callback -> model ->
            # sim, a cycle that keeps each replay's whole object graph
            # (response bodies included) alive until a gen-2 GC.  None
            # just means "recompute on next dispatch" — same order,
            # same results.
            self._lane_best = None
            self._lane_best_dq = None
        return self.now
