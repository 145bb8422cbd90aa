"""Deterministic discrete-event simulation kernel.

All timing in the testbed derives from one simulator instance so that
repeated runs of the same configuration are identical — the property
the paper's replay testbed exists to provide.
"""

from .events import DEFAULT_PRIORITY, EventHandle, LaneTimer, Simulator, TimerLane
from .timers import PeriodicTimer, Timer


def new_simulator() -> Simulator:
    """Build the simulator one replay runs on."""
    return Simulator()


__all__ = [
    "DEFAULT_PRIORITY",
    "EventHandle",
    "LaneTimer",
    "PeriodicTimer",
    "Simulator",
    "Timer",
    "TimerLane",
    "new_simulator",
]
