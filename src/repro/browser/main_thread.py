"""The browser's single main thread.

HTML parsing, CSS parsing, and JavaScript execution all compete for one
thread.  This is the mechanism behind the paper's s5 case study: a
computation-bound page gains nothing from push because the main thread,
not the network, is the bottleneck.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..sim import Simulator


class MainThread:
    """A FIFO task executor with simulated busy time."""

    def __init__(self, sim: Simulator, rng=None, jitter: float = 0.0):
        self._sim = sim
        self._queue: Deque[Tuple[float, Callable[[], None], str]] = deque()
        self._running = False
        self._rng = rng
        self._jitter = jitter
        self.busy_ms = 0.0
        self.tasks_run = 0
        #: Invoked whenever the queue drains completely.
        self.on_idle: Optional[Callable[[], None]] = None

    def release(self) -> None:
        """Drop queued tasks and the idle callback, which close over the
        page that owns this thread."""
        self._queue.clear()
        self.on_idle = None

    def submit(self, duration_ms: float, on_done: Callable[[], None], label: str = "") -> None:
        """Queue a task occupying the thread for ``duration_ms``."""
        if duration_ms < 0:
            raise ValueError("task duration must be non-negative")
        self._queue.append((duration_ms, on_done, label))
        self._maybe_run()

    @property
    def idle(self) -> bool:
        return not self._running and not self._queue

    @property
    def pending_tasks(self) -> int:
        return len(self._queue) + (1 if self._running else 0)

    def _maybe_run(self) -> None:
        if self._running or not self._queue:
            return
        duration, on_done, _label = self._queue.popleft()
        if self._jitter > 0 and self._rng is not None and duration > 0:
            # Client-side processing noise: the residual variance the
            # paper still sees in the deterministic testbed (Fig. 2a).
            duration *= 1.0 + self._rng.uniform(-self._jitter, self._jitter)
        self._running = True
        self.busy_ms += duration
        self.tasks_run += 1

        def finish() -> None:
            self._running = False
            on_done()
            self._maybe_run()
            if self.idle and self.on_idle is not None:
                self.on_idle()

        self._sim.schedule(duration, finish)
