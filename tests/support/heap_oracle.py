"""Reference model of the event core: one heap, nothing else.

``repro.sim.Simulator`` keeps a heap plus monotonic timer lanes and
claims its dispatch order is the order a single heap holding every
event would produce.  This is that single heap — every schedule call,
lane or not, is a ``heappush`` — kept as small as the contract allows
(schedule / call_soon / schedule_call[_at] / timer_lane / cancel /
stop / ``run(until)``) so the random-program suite and the full-replay
cross-check have something independent to compare against.
"""

from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim.events import _NO_ARG, DEFAULT_PRIORITY, EventHandle, LaneTimer


class _HeapTimerLane:
    """A lane that schedules straight onto the oracle heap."""

    def __init__(self, sim):
        self._sim = sim

    def schedule(self, delay, callback, arg1=_NO_ARG, arg2=_NO_ARG):
        if arg1 is _NO_ARG:
            return self._sim.schedule(delay, callback)
        if arg2 is _NO_ARG:
            return self._sim.schedule(delay, lambda: callback(arg1))
        return self._sim.schedule(delay, lambda: callback(arg1, arg2))

    def schedule_call_abs(self, when, callback, arg1=_NO_ARG, arg2=_NO_ARG):
        self._sim.schedule_call_at(when, callback, arg1, arg2)

    def timer(self, callback):
        return LaneTimer(self, callback)


class HeapSimulator:
    """Heap-only simulator with the public surface of ``Simulator``."""

    def __init__(self):
        self._queue = []
        self._seq = 0
        self.now = 0.0
        self._running = False
        self._stopped = False
        self.events_processed = 0
        self._live_events = 0

    def schedule(self, delay, callback, priority=DEFAULT_PRIORITY):
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        self._seq += 1
        event = [self.now + delay, priority, self._seq, callback, False, False]
        heappush(self._queue, event)
        self._live_events += 1
        return EventHandle(event, self)

    def call_soon(self, callback):
        return self.schedule(0.0, callback)

    def schedule_call(self, delay, callback, arg1=_NO_ARG, arg2=_NO_ARG):
        if arg1 is _NO_ARG:
            self.schedule(delay, callback)
        elif arg2 is _NO_ARG:
            self.schedule(delay, lambda: callback(arg1))
        else:
            self.schedule(delay, lambda: callback(arg1, arg2))

    def schedule_call_at(self, when, callback, arg1=_NO_ARG, arg2=_NO_ARG):
        self.schedule_call(when - self.now, callback, arg1, arg2)

    def timer_lane(self):
        return _HeapTimerLane(self)

    def stop(self):
        self._stopped = True

    def pending_events(self):
        return self._live_events

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
                if event[4]:  # cancelled
                    heappop(queue)
                    event[5] = True
                    continue
                if until is not None and event[0] > until:
                    self.now = until
                    break
                heappop(queue)
                event[5] = True
                self._live_events -= 1
                self.now = event[0]
                self.events_processed += 1
                event[3]()
            else:
                # A stopped run leaves the clock at its last event even
                # when only cancelled events were left to drain.
                if not self._stopped and until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return self.now
