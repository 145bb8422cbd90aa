"""Discrete-event simulation kernel.

The whole testbed — TCP pipes, HTTP/2 endpoints, the browser's parser
and render loop — runs on one :class:`Simulator`.  It is a calendar
queue: events are ``[time, priority, seq, callback, cancelled, popped,
arg1, arg2]`` entries dispatched by time, then priority, then
insertion order, which makes every run bit-for-bit deterministic (a
property the paper's testbed is explicitly built to obtain).

This loop executes tens of thousands of events per replayed page load,
so queue entries are plain lists rather than objects: list comparison
runs element-wise in C and the unique sequence number guarantees it
never reaches the (incomparable) callback slot.  Two further
structures keep the per-event cost down; neither changes the order:

* **Timer lanes** — retransmission and delayed-ACK timers are armed by
  the tens of thousands per replay and almost always cancelled before
  they fire.  A :class:`TimerLane` is a monotonic deque: deadlines of
  one timer class arrive in non-decreasing order, so arming is an O(1)
  append, cancelling is an O(1) tombstone that is dropped from the
  *front* (never scanned), and the heap is bypassed entirely.  A
  deadline that would break monotonicity (e.g. an RTO shrinking
  mid-connection) falls back to the main heap, keeping the lane
  invariant trivially true.
* **No-handle scheduling** — fire-and-forget events (segment/ACK
  arrivals) skip the :class:`EventHandle` allocation and can carry up
  to two callback arguments inline in the queue entry, replacing a
  closure allocation per packet.

Sequence numbers are allocated globally in schedule-call order, so the
minimum over the heap head and every lane front is the event a single
heap holding all of them would pop: the dispatch order *is* the
single-heap order.  ``tests/support/heap_oracle.py`` is that single
heap, and the random-program suite in
``tests/property/test_fastcore_identity.py`` requires identical traces.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, List, Optional

from ..errors import SimulationError

#: Default priority for events; lower runs earlier at equal timestamps.
DEFAULT_PRIORITY = 10

# Queue-entry slots the handle touches.
_TIME = 0
_CANCELLED = 4
_POPPED = 5

#: Sentinel marking "no inline argument" in the no-handle scheduling API.
_NO_ARG = object()


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: list, sim: "Simulator"):
        self._event = event
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already ran or was cancelled."""
        event = self._event
        if not event[_CANCELLED] and not event[_POPPED]:
            self._sim._live_events -= 1
        event[_CANCELLED] = True

    @property
    def cancelled(self) -> bool:
        return self._event[_CANCELLED]

    @property
    def time(self) -> float:
        """Simulated time at which the event is (was) scheduled."""
        return self._event[_TIME]


class LaneTimer:
    """Restartable one-shot timer armed through a timer lane.

    Works on any lane object exposing ``schedule(delay, callback) ->
    EventHandle``.
    """

    __slots__ = ("_lane", "_callback", "_handle")

    def __init__(self, lane, callback: Callable[[], None]):
        self._lane = lane
        self._callback = callback
        self._handle: Optional[EventHandle] = None

    def start(self, delay: float) -> None:
        self.cancel()
        self._handle = self._lane.schedule(delay, self._fire)

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def armed(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    def _fire(self) -> None:
        self._handle = None
        self._callback()


class TimerLane:
    """A monotonic-deadline timer class bound to one :class:`Simulator`.

    Guarantees O(1) arm and O(1) cancel for timers whose deadlines are
    scheduled in non-decreasing order (the common case for a single
    timer class on one connection: ``now`` is monotone and the timeout
    value drifts slowly).  Non-monotonic deadlines transparently fall
    back to the simulator's main heap.
    """

    __slots__ = ("_sim", "_dq")

    def __init__(self, sim: "Simulator"):
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


class Simulator:
    """A deterministic discrete-event simulator with a millisecond clock.

    Usage::

        sim = Simulator()
        sim.schedule(10.0, lambda: print(sim.now))
        sim.run()
    """

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
        #: Count of queued, non-cancelled events, maintained on
        #: schedule/cancel/pop so ``pending_events`` is O(1).
        self._live_events = 0

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
        """Schedule ``callback`` to run ``delay`` ms from now.

        ``delay`` must be non-negative; a zero delay runs the callback
        after all events already queued for the current instant with a
        lower or equal priority.
        """
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
        """Number of queued, non-cancelled events (for tests/diagnostics).

        O(1): a live counter maintained on schedule/cancel/pop, so hot
        model code may poll it without scanning the calendar queue.
        """
        return self._live_events

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains, ``until`` is reached, or stopped.

        Returns the simulated time at which the run ended.  ``max_events``
        guards against accidental event loops in model code.  Dispatch
        order is global (time, priority, seq) across the heap and every
        lane.
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
                # A stopped run leaves the clock at its last event
                # whether or not cancelled events linger, so this check
                # comes before the emptiness test.
                if self._stopped:
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
