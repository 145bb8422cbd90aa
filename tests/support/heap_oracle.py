"""Reference model of the event core: one heap, nothing else.

``repro.sim.Simulator`` keeps lane fronts in its heap and the rest of
each lane in a deque, and claims its dispatch order is the order a
single heap holding every event would produce.  This is that single
heap — every schedule call, lane or not, is a ``heappush`` — kept as
small as the contract allows (schedule / call_soon / timer_lane with
its relative and absolute method / cancel by slot write / stop /
``run(until)`` / release) so the random-program suite and the full-replay
cross-check have something independent to compare against.  Entries
are ``[time, priority, seq, callback, cancelled, popped, args]``: the
slots a holder may touch sit where the core has them.
"""

from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim import CANCELLED, DEFAULT_PRIORITY, NO_ARG, POPPED, TIME


class _HeapTimerLane:
    """A lane that schedules straight onto the oracle heap."""

    def __init__(self, sim):
        self._sim = sim

    def schedule(self, delay, callback, arg1=NO_ARG, arg2=NO_ARG):
        return self._sim.schedule(delay, callback, arg1, arg2)

    def schedule_abs(self, when, callback, arg1=NO_ARG, arg2=NO_ARG):
        sim = self._sim
        if when < sim.now:
            raise SimulationError(
                f"cannot schedule event in the past (delay={when - sim.now})"
            )
        return sim._push(when, DEFAULT_PRIORITY, callback, arg1, arg2)


class HeapSimulator:
    """Heap-only simulator with the public surface of ``Simulator``."""

    def __init__(self):
        self._queue = []
        self._seq = 0
        self.now = 0.0
        self._running = False
        self._stopped = False
        self.events_processed = 0

    def _push(self, when, priority, callback, arg1, arg2):
        self._seq += 1
        args = tuple(arg for arg in (arg1, arg2) if arg is not NO_ARG)
        event = [when, priority, self._seq, callback, False, False, args]
        heappush(self._queue, event)
        return event

    def schedule(self, delay, callback, arg1=NO_ARG, arg2=NO_ARG, *, priority=DEFAULT_PRIORITY):
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        return self._push(self.now + delay, priority, callback, arg1, arg2)

    def call_soon(self, callback):
        return self.schedule(0.0, callback)

    def timer_lane(self):
        return _HeapTimerLane(self)

    def stop(self):
        self._stopped = True

    def pending_events(self):
        return sum(not event[CANCELLED] for event in self._queue)

    def release(self):
        for event in self._queue:
            event[3] = event[6] = None
        self._queue.clear()

    def run(self, until=None):
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        queue = self._queue
        try:
            while queue:
                if self._stopped:
                    break
                event = queue[0]
                if event[CANCELLED]:
                    heappop(queue)
                    event[POPPED] = True
                    continue
                if until is not None and event[TIME] > until:
                    self.now = until
                    break
                heappop(queue)
                event[POPPED] = True
                self.now = event[TIME]
                self.events_processed += 1
                event[3](*event[6])
            else:
                # A stopped run leaves the clock at its last event even
                # when only cancelled events were left to drain.
                if not self._stopped and until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return self.now
