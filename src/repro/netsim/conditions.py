"""Network condition profiles.

The paper emulates a DSL access link with ``tc``: 50 ms RTT, 16 Mbit/s
downlink and 1 Mbit/s uplink, no loss (§4.1).  That profile is the
*testbed*.  For Fig. 2a the paper compares against loading the same
sites over the real Internet, where RTT, bandwidth, and loss vary
between runs; :class:`InternetConditions` models that variability by
sampling a fresh :class:`NetworkConditions` per run.

Beyond the paper, conditions now carry the knobs of the impairment
subsystem: an optional per-link :class:`~repro.netsim.impairment.
ImpairmentConfig` (loss, jitter, reordering, bandwidth fading) and the
congestion-control algorithm TCP senders run (``"reno"`` or
``"cubic"``).  :data:`PROFILES` names the ready-made settings the
lossy-network experiments sweep over; :func:`profile` looks them up.

Every profile validates at construction time (via ``repro.units``
helpers) and raises :class:`repro.errors.ConfigError` on nonsensical
values — negative RTT, zero MSS, loss probabilities outside [0, 1] —
instead of silently misbehaving deep inside the simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..errors import ConfigError
from ..units import (
    mbit_per_s,
    require_choice,
    require_fraction,
    require_non_negative,
    require_positive,
)
from .impairment import (
    BandwidthVariationSpec,
    GilbertElliottLoss,
    IIDLoss,
    ImpairmentConfig,
    JitterSpec,
    ReorderSpec,
)

#: Default maximum segment size (Ethernet MTU minus IP/TCP headers);
#: mirrors ``repro.netsim.tcp.MSS``.
DEFAULT_MSS = 1460

#: Transports a page load can run over.  ``tcp`` is the paper's stack
#: (H2 over TCP+TLS); ``quic`` is the QUIC-flavored transport in
#: ``repro.netsim.quic`` (per-stream delivery, no cross-stream HoL
#: blocking, 1-RTT — or 0-RTT resumed — handshake).
TRANSPORTS = ("tcp", "quic")


@dataclass(frozen=True)
class NetworkConditions:
    """A fully deterministic network parameterization for one run.

    Attributes:
        rtt_ms: round-trip propagation delay between client and servers.
        downlink_bytes_per_ms: client downlink rate (shared bottleneck).
        uplink_bytes_per_ms: client uplink rate (shared bottleneck).
        loss_rate: per-segment Bernoulli loss probability applied at the
            TCP sender (the historical Fig. 2a "Internet" knob; the
            richer link-level models live in ``impairment``).
        jitter_ms: maximum uniform extra one-way delay per segment.
        server_delay_ms: extra per-request processing delay at servers
            (the paper assumes none in the testbed; kept configurable).
        mss: TCP maximum segment size in bytes.
        congestion_control: name of the TCP congestion controller
            (see ``repro.netsim.congestion.CONGESTION_CONTROLS``).
        impairment: optional packet-impairment pipeline configuration
            applied by both access links; ``None`` keeps the clean
            bit-identical fast path.
        transport: ``"tcp"`` (the paper's stack) or ``"quic"``
            (per-stream delivery without cross-stream HoL blocking;
            see ``repro.netsim.quic``).
        quic_0rtt: when the transport is QUIC, account connections to
            previously visited origins as 0-RTT session resumptions.
    """

    rtt_ms: float = 50.0
    downlink_bytes_per_ms: float = mbit_per_s(16)
    uplink_bytes_per_ms: float = mbit_per_s(1)
    loss_rate: float = 0.0
    jitter_ms: float = 0.0
    server_delay_ms: float = 0.0
    mss: int = DEFAULT_MSS
    congestion_control: str = "reno"
    impairment: Optional[ImpairmentConfig] = None
    transport: str = "tcp"
    quic_0rtt: bool = False

    # Additive transport knobs stay out of historical cache keys: a
    # cell that runs the default TCP stack fingerprints exactly as it
    # did before these fields existed (see ``fingerprint.jsonable``).
    FINGERPRINT_NEUTRAL = {"transport": "tcp", "quic_0rtt": False}

    def __post_init__(self) -> None:
        require_non_negative("rtt_ms", self.rtt_ms)
        require_positive("downlink_bytes_per_ms", self.downlink_bytes_per_ms)
        require_positive("uplink_bytes_per_ms", self.uplink_bytes_per_ms)
        require_fraction("loss_rate", self.loss_rate)
        require_non_negative("jitter_ms", self.jitter_ms)
        require_non_negative("server_delay_ms", self.server_delay_ms)
        require_positive("mss", self.mss)
        require_choice("transport", self.transport, TRANSPORTS)
        if self.quic_0rtt and self.transport != "quic":
            raise ConfigError(
                "quic_0rtt requires transport='quic', "
                f"got transport={self.transport!r}"
            )
        from .congestion import CONGESTION_CONTROLS

        if self.congestion_control not in CONGESTION_CONTROLS:
            raise ConfigError(
                f"unknown congestion control {self.congestion_control!r} "
                f"(available: {', '.join(sorted(CONGESTION_CONTROLS))})"
            )

    @property
    def one_way_ms(self) -> float:
        """One-way propagation delay (half the RTT)."""
        return self.rtt_ms / 2.0

    def with_rtt(self, rtt_ms: float) -> "NetworkConditions":
        return replace(self, rtt_ms=rtt_ms)

    def with_impairment(self, impairment: Optional[ImpairmentConfig]) -> "NetworkConditions":
        return replace(self, impairment=impairment)

    def with_congestion_control(self, name: str) -> "NetworkConditions":
        return replace(self, congestion_control=name)

    def with_transport(self, name: str, quic_0rtt: bool = False) -> "NetworkConditions":
        return replace(self, transport=name, quic_0rtt=quic_0rtt)


#: The paper's emulated DSL setting (§4.1).
DSL_TESTBED = NetworkConditions()

#: A faster cable-like profile, used in some ablations.
CABLE = NetworkConditions(
    rtt_ms=20.0,
    downlink_bytes_per_ms=mbit_per_s(100),
    uplink_bytes_per_ms=mbit_per_s(10),
)

#: A cellular-like profile (higher RTT, moderate bandwidth).
CELLULAR = NetworkConditions(
    rtt_ms=100.0,
    downlink_bytes_per_ms=mbit_per_s(8),
    uplink_bytes_per_ms=mbit_per_s(2),
    jitter_ms=5.0,
)

#: The paper's DSL link suffering bursty last-mile loss (a noisy line):
#: ~1% stationary loss in short bursts, mild jitter and reordering.
LOSSY_DSL = NetworkConditions(
    impairment=ImpairmentConfig(
        loss=GilbertElliottLoss(p_enter_bad=0.004, p_exit_bad=0.30, bad_loss=0.75),
        jitter=JitterSpec(max_ms=2.0),
        reorder=ReorderSpec(rate=0.005, extra_delay_ms=10.0),
    ),
)

#: 3G-like cellular: high RTT, narrow and unstable link, burst loss.
CELLULAR_3G = NetworkConditions(
    rtt_ms=150.0,
    downlink_bytes_per_ms=mbit_per_s(3),
    uplink_bytes_per_ms=mbit_per_s(1),
    congestion_control="cubic",
    impairment=ImpairmentConfig(
        loss=GilbertElliottLoss(p_enter_bad=0.008, p_exit_bad=0.25, bad_loss=0.8),
        jitter=JitterSpec(max_ms=15.0),
        reorder=ReorderSpec(rate=0.01, extra_delay_ms=30.0),
        bandwidth=BandwidthVariationSpec(amplitude=0.4, interval_ms=500.0),
    ),
)

#: LTE-like cellular: moderate RTT, fast but fading link, light loss.
CELLULAR_LTE = NetworkConditions(
    rtt_ms=70.0,
    downlink_bytes_per_ms=mbit_per_s(20),
    uplink_bytes_per_ms=mbit_per_s(8),
    congestion_control="cubic",
    impairment=ImpairmentConfig(
        loss=IIDLoss(rate=0.002),
        jitter=JitterSpec(max_ms=8.0),
        bandwidth=BandwidthVariationSpec(amplitude=0.25, interval_ms=250.0),
    ),
)

#: Fiber-to-the-home: short RTT, wide clean pipe.
FIBER = NetworkConditions(
    rtt_ms=10.0,
    downlink_bytes_per_ms=mbit_per_s(300),
    uplink_bytes_per_ms=mbit_per_s(100),
)

#: Named profiles selectable from experiment configs and the CLI.
PROFILES: Dict[str, NetworkConditions] = {
    "clean_dsl": DSL_TESTBED,
    "lossy_dsl": LOSSY_DSL,
    "cable": CABLE,
    "cellular": CELLULAR,
    "cellular_3g": CELLULAR_3G,
    "cellular_lte": CELLULAR_LTE,
    "fiber": FIBER,
}


def profile(name: str) -> NetworkConditions:
    """Look up a named condition profile; raises ``ConfigError``."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError(
            f"unknown network profile {name!r} "
            f"(available: {', '.join(sorted(PROFILES))})"
        ) from None


class ConditionSampler:
    """Base class: yields one :class:`NetworkConditions` per run."""

    def sample(self, rng: random.Random) -> NetworkConditions:
        raise NotImplementedError


class FixedConditions(ConditionSampler):
    """Always returns the same conditions — the replay testbed."""

    def __init__(self, conditions: NetworkConditions = DSL_TESTBED):
        self.conditions = conditions

    def sample(self, rng: random.Random) -> NetworkConditions:
        return self.conditions


class InternetConditions(ConditionSampler):
    """Per-run variability as observed when measuring over the Internet.

    Each run samples RTT and bandwidth multiplicatively (log-normal-ish
    via ``rng.lognormvariate``), adds per-segment jitter, and a small
    loss probability.  The defaults are chosen so that the per-site
    standard error over 31 runs lands in the several-hundred-millisecond
    range the paper reports for Internet measurements, versus < 100 ms
    in the testbed (Fig. 2a).
    """

    def __init__(
        self,
        base: NetworkConditions = DSL_TESTBED,
        rtt_sigma: float = 0.35,
        bandwidth_sigma: float = 0.30,
        max_loss: float = 0.01,
        jitter_ms: float = 8.0,
        server_delay_max_ms: float = 40.0,
    ):
        self.base = base
        self.rtt_sigma = rtt_sigma
        self.bandwidth_sigma = bandwidth_sigma
        self.max_loss = max_loss
        self.jitter_ms = jitter_ms
        self.server_delay_max_ms = server_delay_max_ms

    def sample(self, rng: random.Random) -> NetworkConditions:
        rtt = self.base.rtt_ms * rng.lognormvariate(0.0, self.rtt_sigma)
        down = self.base.downlink_bytes_per_ms / rng.lognormvariate(0.0, self.bandwidth_sigma)
        up = self.base.uplink_bytes_per_ms / rng.lognormvariate(0.0, self.bandwidth_sigma)
        return NetworkConditions(
            rtt_ms=rtt,
            downlink_bytes_per_ms=down,
            uplink_bytes_per_ms=up,
            loss_rate=rng.uniform(0.0, self.max_loss),
            jitter_ms=rng.uniform(0.0, self.jitter_ms),
            server_delay_ms=rng.uniform(0.0, self.server_delay_max_ms),
        )
