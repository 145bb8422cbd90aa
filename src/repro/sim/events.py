"""Discrete-event simulation kernel.

The whole testbed — TCP pipes, HTTP/2 endpoints, the browser's parser
and render loop — runs on one :class:`Simulator`.  It is a classic
calendar queue: events are ``[time, priority, sequence, callback, ...]``
entries ordered by time, then priority, then insertion order, which
makes every run bit-for-bit deterministic (a property the paper's
testbed is explicitly built to obtain).

Hot-path note: this loop executes tens of thousands of events per
replayed page load, so queue entries are plain lists rather than
objects.  List comparison runs element-wise in C and the unique
sequence number guarantees it never reaches the (incomparable)
callback slot — the dataclass ``order=True`` predecessor spent a
measurable share of each replay inside its generated ``__lt__``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional

from ..errors import SimulationError

#: Default priority for events; lower runs earlier at equal timestamps.
DEFAULT_PRIORITY = 10

# Queue-entry slots: [time, priority, seq, callback, cancelled, popped].
# The fastcore extends entries with two inline-argument slots; the
# handle below only touches the shared prefix, so it works on both.
_TIME = 0
_CANCELLED = 4
_POPPED = 5

#: Sentinel marking "no inline argument" in the batch scheduling API.
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
    EventHandle`` — the fastcore's monotonic :class:`TimerLane` and the
    oracle's heap-backed shim alike.
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


class _HeapTimerLane:
    """Oracle counterpart of the fastcore's :class:`TimerLane`.

    Schedules straight onto the oracle heap — no behavioural shortcut —
    so model code written against the lane API runs identically (same
    sequence-number allocation order, hence same dispatch order) on
    both cores.
    """

    __slots__ = ("_sim",)

    def __init__(self, sim: "Simulator"):
        self._sim = sim

    def schedule(self, delay: float, callback: Callable, arg1=_NO_ARG, arg2=_NO_ARG) -> EventHandle:
        if arg1 is _NO_ARG:
            return self._sim.schedule(delay, callback)
        if arg2 is _NO_ARG:
            return self._sim.schedule(delay, lambda: callback(arg1))
        return self._sim.schedule(delay, lambda: callback(arg1, arg2))

    def schedule_call_abs(self, when: float, callback: Callable, arg1=_NO_ARG, arg2=_NO_ARG) -> None:
        self._sim.schedule_call_at(when, callback, arg1, arg2)

    def timer(self, callback: Callable[[], None]) -> LaneTimer:
        return LaneTimer(self, callback)


class Simulator:
    """A deterministic discrete-event simulator with a millisecond clock.

    Usage::

        sim = Simulator()
        sim.schedule(10.0, lambda: print(sim.now))
        sim.run()
    """

    #: State copied verbatim (through the fork memo) by
    #: :meth:`snapshot`; everything deterministic lives here — the
    #: calendar queue reaches the whole model graph via its callbacks.
    _SNAPSHOT_ATTRS = ("_queue", "_seq", "now", "_events_processed", "_live_events")
    #: Transient state reset to a known value on each fork.
    _SNAPSHOT_RESET = (("_running", False), ("_stopped", False))

    def __init__(self):
        self._queue: List[list] = []
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
        self._seq += 1
        event = [self.now + delay, priority, self._seq, callback, False, False]
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
        """Fire-and-forget :meth:`schedule` taking up to two arguments.

        The fastcore dispatches the arguments without allocating a
        closure or an :class:`EventHandle`; here they are folded into a
        closure so the observable behaviour (and sequence-number
        allocation) is identical.
        """
        if arg1 is _NO_ARG:
            self.schedule(delay, callback)
        elif arg2 is _NO_ARG:
            self.schedule(delay, lambda: callback(arg1))
        else:
            self.schedule(delay, lambda: callback(arg1, arg2))

    def schedule_call_at(self, when: float, callback: Callable, arg1=_NO_ARG, arg2=_NO_ARG) -> None:
        """Absolute-time :meth:`schedule_call`."""
        self.schedule_call(when - self.now, callback, arg1, arg2)

    def timer_lane(self) -> _HeapTimerLane:
        """Allocate a timer lane (heap-backed on the oracle)."""
        return _HeapTimerLane(self)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 50_000_000,
        stop_after_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or stopped.

        Returns the simulated time at which the run ended.  ``max_events``
        guards against accidental event loops in model code.

        ``stop_after_events`` pauses the run at an *event boundary*: the
        loop exits before dispatching the next event once
        ``events_processed`` reaches the threshold.  Unlike ``stop()``
        (which takes effect mid-callback), this leaves the world exactly
        as a straight run left it after that many events — the property
        fork-point snapshots rely on.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        queue = self._queue
        try:
            while queue:
                if self._stopped:
                    break
                if (
                    stop_after_events is not None
                    and self._events_processed >= stop_after_events
                ):
                    break
                event = queue[0]
                if event[4]:  # cancelled
                    heappop(queue)
                    event[5] = True
                    continue
                event_time = event[0]
                if until is not None and event_time > until:
                    self.now = until
                    break
                heappop(queue)
                event[5] = True
                self._live_events -= 1
                self.now = event_time
                self._events_processed += 1
                if self._events_processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; likely a model loop"
                    )
                event[3]()
            else:
                # A stopped or paused run leaves the clock at its last
                # event; whether cancelled events still linger in the
                # queue (the breaks above) must not decide that.
                paused = self._stopped or (
                    stop_after_events is not None
                    and self._events_processed >= stop_after_events
                )
                if not paused and until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return self.now

    def pending_events(self) -> int:
        """Number of queued, non-cancelled events (for tests/diagnostics).

        O(1): a live counter maintained on schedule/cancel/pop, so hot
        model code may poll it without scanning the calendar queue.
        """
        return self._live_events

    def snapshot(self, roots=None, shared=(), freeze: bool = True):
        """Capture the full deterministic state as a :class:`SimSnapshot`.

        ``roots`` is any extra object graph (testbed, page load, tracer)
        the caller wants back from each fork; it is copied through the
        same memo as the queue, so shared references stay shared.  Only
        legal on a non-running simulator — ``stop()`` first from inside
        an event.  See :mod:`repro.sim.snapshot` for ``shared``/
        ``freeze`` semantics.
        """
        from .snapshot import SimSnapshot

        return SimSnapshot.capture(self, roots, shared, freeze)

    @classmethod
    def resume(cls, snapshot):
        """Materialize one fork of ``snapshot``; returns ``(sim, roots)``.

        The forked simulator continues bit-for-bit as the captured one
        would have: same clock, sequence counter, ``events_processed``,
        and dispatch order.
        """
        if snapshot.sim_class is not cls:
            raise SimulationError(
                f"snapshot was captured from {snapshot.sim_class.__name__}, "
                f"cannot resume as {cls.__name__}"
            )
        return snapshot.fork()
