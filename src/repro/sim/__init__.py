"""Deterministic discrete-event simulation kernel.

All timing in the testbed derives from one simulator instance so that
repeated runs of the same configuration are identical — the property
the paper's replay testbed exists to provide.
"""

from .events import (
    CANCELLED,
    DEFAULT_PRIORITY,
    NO_ARG,
    POPPED,
    TIME,
    Simulator,
    TimerLane,
)


def new_simulator() -> Simulator:
    """Build the simulator one replay runs on."""
    return Simulator()


__all__ = [
    "CANCELLED",
    "DEFAULT_PRIORITY",
    "NO_ARG",
    "POPPED",
    "TIME",
    "Simulator",
    "TimerLane",
    "new_simulator",
]
