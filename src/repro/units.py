"""Unit helpers used throughout the package.

The simulator's base units are **milliseconds** for time and **bytes**
for data.  Bandwidths are stored in bytes per millisecond.  These helpers
exist so call sites read like the paper ("16 Mbit/s downlink, 50 ms
RTT") instead of carrying raw conversion factors around.
"""

from __future__ import annotations

import math

#: Number of bytes in a kilobyte / megabyte (SI, as used by the paper).
KB = 1000
MB = 1000 * 1000

#: Binary variants, used for buffer sizes.
KIB = 1024
MIB = 1024 * 1024


def mbit_per_s(mbit: float) -> float:
    """Convert a bandwidth in Mbit/s to bytes per millisecond."""
    return mbit * 1_000_000 / 8 / 1000


def kbit_per_s(kbit: float) -> float:
    """Convert a bandwidth in kbit/s to bytes per millisecond."""
    return kbit * 1000 / 8 / 1000


def bytes_per_ms_to_mbit(rate: float) -> float:
    """Convert bytes per millisecond back to Mbit/s (for reporting)."""
    return rate * 1000 * 8 / 1_000_000


def seconds(s: float) -> float:
    """Convert seconds to milliseconds."""
    return s * 1000.0


def ms(value: float) -> float:
    """Identity helper; documents that a literal is in milliseconds."""
    return float(value)


def transmission_delay_ms(size_bytes: int, rate_bytes_per_ms: float) -> float:
    """Time to serialize ``size_bytes`` onto a link of the given rate."""
    if rate_bytes_per_ms <= 0:
        raise ValueError("rate must be positive")
    return size_bytes / rate_bytes_per_ms


def require_positive(name: str, value: float) -> float:
    """Validate that a configuration quantity is strictly positive.

    Raises :class:`repro.errors.ConfigError` so profile mistakes (zero
    MSS, zero bandwidth, an infinite or NaN rate) surface at
    construction time instead of as divide-by-zero or silent stalls deep
    inside the simulator.
    """
    from .errors import ConfigError

    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    return value


def require_non_negative(name: str, value: float) -> float:
    """Validate that a quantity (delay, jitter) is zero or positive and
    finite: an infinite delay would stall a load until its timeout."""
    from .errors import ConfigError

    if not 0 <= value < math.inf:
        raise ConfigError(f"{name} must be non-negative and finite, got {value!r}")
    return value


def require_fraction(name: str, value: float) -> float:
    """Validate that a probability/ratio lies in the closed [0, 1]."""
    from .errors import ConfigError

    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be within [0, 1], got {value!r}")
    return value


def require_choice(name: str, value: str, choices) -> str:
    """Validate that a named knob is one of an enumerated set.

    Used for registry-style configuration strings (transport names,
    congestion controllers) so a typo fails at construction time with
    the available options listed, not as an attribute error mid-run.
    """
    from .errors import ConfigError

    if value not in choices:
        raise ConfigError(
            f"unknown {name} {value!r} "
            f"(available: {', '.join(sorted(choices))})"
        )
    return value


def fmt_kb(size_bytes: float) -> str:
    """Format a byte count as the paper does, e.g. ``'309 KB'``."""
    return f"{size_bytes / KB:,.0f} KB"


def fmt_ms(value: float) -> str:
    """Format a duration in milliseconds for report output."""
    return f"{value:,.0f} ms"
