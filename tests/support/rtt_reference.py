"""Reference RFC 6298 estimator: one sample at a time.

The TCP and QUIC senders run the RFC 6298 update inline on their ACK
loops, on locals, and derive the RTO once per ACK.  This is the
one-sample-at-a-time form they replaced, the method both used to call
per acknowledged segment or packet.  Tests feed it the samples a
transport should have taken and require the transport's ``(srtt,
rttvar, rto)`` to equal it float for float.

``sample_rtt`` is written as a method over ``_srtt`` / ``_rttvar`` /
``_rto`` so a test double of a sender can bind it directly
(``_sample_rtt = sample_rtt``).
"""


def sample_rtt(self, rtt: float) -> None:
    """RFC 6298 §2 smoothed RTT / RTO update (Karn's rule applied by
    the caller: retransmitted segments are never sampled)."""
    srtt = self._srtt
    if srtt == 0.0:
        srtt = rtt
        rttvar = rtt / 2.0
    else:
        deviation = srtt - rtt
        if deviation < 0.0:
            deviation = -deviation
        rttvar = 0.75 * self._rttvar + 0.25 * deviation
        srtt = 0.875 * srtt + 0.125 * rtt
    self._srtt = srtt
    self._rttvar = rttvar
    self._rto = min(max(srtt + max(4.0 * rttvar, 10.0), 200.0), 60_000.0)


class ReferenceEstimator:
    """RFC 6298 state alone, moved only by :func:`sample_rtt` and the
    senders' back-off line."""

    _sample_rtt = sample_rtt

    def __init__(self):
        self._srtt = 0.0
        self._rttvar = 0.0
        self._rto = 1_000.0

    def back_off(self) -> None:
        """What an expired retransmission timer does to the RTO."""
        self._rto = min(self._rto * 2.0, 60_000.0)

    def state(self) -> tuple:
        return (self._srtt, self._rttvar, self._rto)
