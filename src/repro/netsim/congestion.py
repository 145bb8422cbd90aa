"""Pluggable congestion control for the TCP and QUIC models.

The original send path hard-coded Reno-style window arithmetic inside
``_HalfConnection``; the impairment work makes the controller a policy
object so lossy-network experiments can compare algorithms.  Two are
provided:

* :class:`RenoCC` — the historical behaviour, extracted verbatim: IW10
  slow start, +1 MSS/RTT congestion avoidance, multiplicative decrease
  by half on fast retransmit, collapse to one MSS on RTO.  With the
  default profile this reproduces the pre-refactor float arithmetic
  operation for operation, which is what keeps the clean-path golden
  fingerprints bit-identical.
* :class:`CubicCC` — a simplified RFC 8312 CUBIC: window growth follows
  the cubic ``W(t) = C·(t-K)³ + W_max`` curve anchored at the last loss
  event, with β = 0.7 multiplicative decrease.  Less brutal backoff and
  fast re-probing toward ``W_max`` are exactly the traits that separate
  it from Reno on lossy links.

Controllers are deterministic: they draw no randomness, and their state
advances only on ACK/loss events whose order the simulator fixes.
"""

from __future__ import annotations

from ..errors import ConfigError

#: Initial congestion window, in segments (RFC 6928), shared by all
#: controllers.
INITIAL_WINDOW_SEGMENTS = 10

#: Initial slow-start threshold (bytes), the historical constant.
INITIAL_SSTHRESH = float(64 * 1024)


class CongestionControl:
    """Interface: a congestion window driven by ACK and loss events.

    Attributes:
        cwnd: congestion window in bytes (float; the sender compares
            flight size against it).
        ssthresh: slow-start threshold in bytes.
    """

    name = "base"

    def __init__(self, mss: int):
        self.mss = mss
        self.cwnd = float(INITIAL_WINDOW_SEGMENTS * mss)
        self.ssthresh = INITIAL_SSTHRESH

    def on_ack(self, newly_acked: int, now: float) -> None:
        """New cumulative data was acknowledged."""
        raise NotImplementedError

    def on_fast_retransmit(self, now: float) -> None:
        """Three duplicate ACKs signalled a lost segment."""
        raise NotImplementedError

    def on_timeout(self, now: float) -> None:
        """An RTO fired; the pipe is assumed drained."""
        raise NotImplementedError


class RenoCC(CongestionControl):
    """NewReno-flavoured AIMD, bit-identical to the historical inline path."""

    name = "reno"

    def on_ack(self, newly_acked: int, now: float) -> None:
        if self.cwnd < self.ssthresh:
            # Slow start: grow by the acked bytes (bounded per ACK).
            self.cwnd += min(newly_acked, 2 * self.mss)
        else:
            # Congestion avoidance: ~1 MSS per RTT.
            self.cwnd += self.mss * self.mss / self.cwnd

    def on_fast_retransmit(self, now: float) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.mss)
        self.cwnd = self.ssthresh

    def on_timeout(self, now: float) -> None:
        # Tahoe-style: collapse the window and re-enter slow start.
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)


class CubicCC(CongestionControl):
    """Simplified RFC 8312 CUBIC (C = 0.4, β = 0.7).

    The congestion-avoidance window tracks the cubic curve anchored at
    the window before the last loss (``W_max`` segments): concave while
    approaching it, a plateau around it, then convex probing beyond.
    Per-ACK growth is ``(target - w) / w`` segments (clamped to one MSS
    per ACK), the RFC's window-update rule without its separate
    TCP-friendly estimator — a floor of 1% of an MSS per ACK keeps the
    plateau from stalling entirely.
    """

    name = "cubic"

    #: Cubic scaling constant, segments per second cubed (RFC 8312 §5).
    C = 0.4
    #: Multiplicative-decrease factor (RFC 8312 §4.5).
    BETA = 0.7

    def __init__(self, mss: int):
        super().__init__(mss)
        self._w_max = 0.0  # segments, window just before the last loss
        self._epoch_start: float = -1.0  # ms; < 0 means "no epoch yet"
        self._k = 0.0  # seconds until the curve re-reaches w_max

    def on_ack(self, newly_acked: int, now: float) -> None:
        mss = self.mss
        if self.cwnd < self.ssthresh:
            self.cwnd += min(newly_acked, 2 * mss)
            return
        w = self.cwnd / mss
        if self._epoch_start < 0.0:
            self._epoch_start = now
            if self._w_max > w:
                self._k = ((self._w_max - w) / self.C) ** (1.0 / 3.0)
            else:
                self._k = 0.0
                self._w_max = w
        t = (now - self._epoch_start) / 1000.0
        target = self.C * (t - self._k) ** 3 + self._w_max
        growth = (target - w) / w if target > w else 0.0
        self.cwnd += mss * min(max(growth, 0.01), 1.0)

    def _loss_event(self) -> None:
        self._w_max = self.cwnd / self.mss
        self._epoch_start = -1.0

    def on_fast_retransmit(self, now: float) -> None:
        self._loss_event()
        self.ssthresh = max(self.cwnd * self.BETA, 2.0 * self.mss)
        self.cwnd = self.ssthresh

    def on_timeout(self, now: float) -> None:
        self._loss_event()
        self.ssthresh = max(self.cwnd * self.BETA, 2.0 * self.mss)
        self.cwnd = float(self.mss)


#: Registry of selectable controllers, keyed by the profile field
#: ``NetworkConditions.congestion_control``.
CONGESTION_CONTROLS = {
    RenoCC.name: RenoCC,
    CubicCC.name: CubicCC,
}


def make_congestion_control(name: str, mss: int) -> CongestionControl:
    """Instantiate the named controller; raises ``ConfigError`` for
    unknown names so profile typos fail loudly at connection setup."""
    try:
        cls = CONGESTION_CONTROLS[name]
    except KeyError:
        raise ConfigError(
            f"unknown congestion control {name!r} "
            f"(available: {', '.join(sorted(CONGESTION_CONTROLS))})"
        ) from None
    return cls(mss)
