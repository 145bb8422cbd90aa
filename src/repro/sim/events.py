"""Discrete-event simulation kernel.

The whole testbed — TCP pipes, HTTP/2 endpoints, the browser's parser
and render loop — runs on one :class:`Simulator`.  It is a calendar
queue: events are ``[time, priority, seq, callback, cancelled, popped,
arg1, arg2, lane]`` entries dispatched by time, then priority, then
insertion order, which makes every run bit-for-bit deterministic (a
property the paper's testbed is explicitly built to obtain).

This loop executes thousands of events per replayed page load, so a
queue entry is a plain list: list comparison runs element-wise in C and
the unique sequence number guarantees it never reaches the
(incomparable) callback slot.  The entry is also all there is to an
event:

* **The entry is the handle.**  ``schedule`` returns the entry it
  queued.  Writing ``entry[CANCELLED] = True`` cancels it (harmless
  once it ran), ``entry[TIME]`` is its deadline, and ``entry[POPPED]``
  turns true when it leaves the queue, run or not.  Up to two callback
  arguments ride inline, so a per-packet event allocates one list and
  nothing else — no handle object, no closure.
* **Timer lanes** — retransmission and delayed-ACK timers are armed by
  the thousands per replay and almost always cancelled before they
  fire, and a clean link delivers in FIFO order.  A :class:`TimerLane`
  is a monotonic deque for one such class of deadlines: arming is an
  O(1) append, cancelling an O(1) tombstone.  Only the lane's *front*
  entry also sits in the heap; when the run loop pops it, the first
  live successor takes its place.  A deadline that would break
  monotonicity (an RTO shrinking mid-connection, jitter) is queued as
  a plain heap event instead, so the lane invariant holds trivially.

Sequence numbers are allocated globally in schedule-call order and a
lane's successors sort after its front, so the heap's head is always
the event a single heap holding everything would pop: the dispatch
order *is* the single-heap order.  ``tests/support/heap_oracle.py`` is
that single heap, and the random-program suite in
``tests/property/test_fastcore_identity.py`` requires identical traces.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush, heapreplace
from typing import Callable, List, Optional

from ..errors import SimulationError

#: Default priority for events; lower runs earlier at equal timestamps.
DEFAULT_PRIORITY = 10

#: Queue-entry slots a holder of an entry may read (and, for
#: ``CANCELLED``, set).  The run loop spells them as literals.
TIME = 0
CANCELLED = 4
POPPED = 5
#: The deque of the lane an entry waits in; ``None`` for heap-only events.
_LANE = 8

#: Marks an unused inline-argument slot.
NO_ARG = object()


class TimerLane:
    """A monotonic-deadline timer class bound to one :class:`Simulator`.

    Guarantees O(1) arm and O(1) cancel for events whose deadlines are
    scheduled in non-decreasing order (the common case for a single
    timer class on one connection: ``now`` is monotone and the timeout
    value drifts slowly).  Invariant: a non-empty lane's front entry is
    in the simulator's heap and no other entry of the lane is.
    """

    __slots__ = ("_sim", "_dq")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self._dq: deque = deque()

    def schedule(self, delay: float, callback: Callable, arg1=NO_ARG, arg2=NO_ARG) -> list:
        """Arm ``callback`` ``delay`` ms from now; returns the entry."""
        sim = self._sim
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        seq = sim._seq + 1
        sim._seq = seq
        dq = self._dq
        event = [sim.now + delay, DEFAULT_PRIORITY, seq, callback, False, False, arg1, arg2, dq]
        if not dq:
            dq.append(event)
            heappush(sim._queue, event)
        elif dq[-1][0] <= event[0]:
            dq.append(event)
        else:
            event[_LANE] = None  # out of order: an ordinary heap event
            heappush(sim._queue, event)
        return event

    def schedule_abs(self, when: float, callback: Callable, arg1=NO_ARG, arg2=NO_ARG) -> list:
        """:meth:`schedule` at absolute simulated time ``when``.

        Links deliver through this: an arrival instant is computed once,
        and ``when - now + now`` need not give it back bit for bit.  The
        body is spelled out twice because arming is one Python call per
        segment and per timer; sharing it would make that two.
        """
        sim = self._sim
        if when < sim.now:
            raise SimulationError(
                f"cannot schedule event in the past (delay={when - sim.now})"
            )
        seq = sim._seq + 1
        sim._seq = seq
        dq = self._dq
        event = [when, DEFAULT_PRIORITY, seq, callback, False, False, arg1, arg2, dq]
        if not dq:
            dq.append(event)
            heappush(sim._queue, event)
        elif dq[-1][0] <= when:
            dq.append(event)
        else:
            event[_LANE] = None
            heappush(sim._queue, event)
        return event

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
        self._seq = 0
        #: Current simulated time in milliseconds.  A plain attribute (the
        #: per-packet paths read it thousands of times per load); only
        #: ``run`` assigns it.
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._events_processed = 0

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_processed

    def schedule(
        self,
        delay: float,
        callback: Callable,
        arg1=NO_ARG,
        arg2=NO_ARG,
        *,
        priority: int = DEFAULT_PRIORITY,
    ) -> list:
        """Schedule ``callback(arg1, arg2)`` to run ``delay`` ms from now.

        ``delay`` must be non-negative; a zero delay runs the callback
        after all events already queued for the current instant with a
        lower or equal priority.  Returns the queue entry.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        seq = self._seq + 1
        self._seq = seq
        event = [self.now + delay, priority, seq, callback, False, False, arg1, arg2, None]
        heappush(self._queue, event)
        return event

    def call_soon(self, callback: Callable[[], None]) -> list:
        """Schedule ``callback`` at the current instant (after queued work)."""
        return self.schedule(0.0, callback)

    def timer_lane(self) -> TimerLane:
        """Allocate a dedicated monotonic timer lane."""
        return TimerLane(self)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of queued, non-cancelled events (for tests/diagnostics).

        Counted on demand: the heap holds every heap-only event and the
        front of every non-empty lane, which names its deque.
        """
        live = 0
        for event in self._queue:
            lane = event[_LANE]
            for queued in (event,) if lane is None else lane:
                live += not queued[CANCELLED]
        return live

    def release(self) -> None:
        """Drop every queued event, so the world it calls into can be freed.

        Pending callbacks are bound methods and closures of the model,
        whose objects hold this simulator and the entries they armed: a
        load that ends with events queued (a timeout, a raise) would
        leave its world in reference cycles.  Every queued entry, lane
        successors included, loses its callback and arguments, and the
        heap and the lanes empty.  The clock and ``events_processed``
        stay readable; the simulator is not meant to run again.
        """
        for event in self._queue:
            lane = event[_LANE]
            for queued in (event,) if lane is None else lane:
                queued[3] = queued[6] = queued[7] = None
            if lane is not None:
                lane.clear()
        self._queue.clear()

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains, ``until`` is reached, or stopped.

        Returns the simulated time at which the run ended.  ``max_events``
        guards against accidental event loops in model code.  Dispatch
        order is global (time, priority, seq) across the heap and every
        lane.

        The cyclic garbage collector is paused for the run and restored
        to its prior state afterwards: a load allocates thousands of
        tracked objects, each gen-0 pass over them finds nothing to
        free, and a released world (:meth:`release` and the model's own
        ``release`` methods) is freed by reference counting.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        queue = self._queue
        no_arg = NO_ARG
        collecting = gc.isenabled()
        gc.disable()
        try:
            # A stopped run leaves the clock at its last event whether
            # or not cancelled events linger, so this test comes before
            # the emptiness test.
            while not self._stopped:
                if not queue:
                    if until is not None and until > self.now:
                        self.now = until
                    break
                event = queue[0]
                cancelled = event[4]
                if not cancelled and until is not None and event[0] > until:
                    self.now = until
                    break
                dq = event[8]
                if dq is None:
                    heappop(queue)
                else:
                    # A lane front: its first live successor replaces
                    # it in the heap.  Successors sort after the front
                    # (later deadline, later seq), so none could have
                    # been the head before now.
                    dq.popleft()
                    while dq and dq[0][4]:
                        dq.popleft()[5] = True
                    if dq:
                        heapreplace(queue, dq[0])
                    else:
                        heappop(queue)
                event[5] = True
                if cancelled:
                    continue
                self.now = event[0]
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
            if collecting:
                gc.enable()
        return self.now
