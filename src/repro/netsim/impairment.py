"""Deterministic packet-impairment pipeline for shared links.

The paper's testbed is a clean pipe (50 ms RTT, 16/1 Mbit/s, no loss,
§4.1), but the literature it builds on shows that transport-level
impairments can invert its verdicts: Goel et al. (domain sharding in
lossy cellular networks) and Elkhatib et al. (network variables vs
SPDY) both find that loss and delay variability change who wins.  This
module models those impairments as a per-link pipeline applied to every
segment a :class:`repro.netsim.link.SharedLink` transmits:

* **loss** — i.i.d. Bernoulli (:class:`IIDLoss`) or bursty two-state
  Gilbert-Elliott (:class:`GilbertElliottLoss`), the standard model for
  correlated wireless/cellular loss;
* **jitter** — uniform extra one-way delay per packet;
* **reordering** — a fraction of packets is held back by a fixed extra
  delay so later packets overtake them (netem's ``reorder`` semantics);
* **bandwidth variation** — block fading: the link rate is scaled by a
  multiplier redrawn every ``interval_ms`` (cellular capacity churn).

Determinism contract: every random decision comes from the single
``random.Random`` handed to the pipeline, drawn in a **fixed order per
packet** (loss-state transition, loss draw, jitter draw, reorder draw);
bandwidth multipliers are drawn lazily, one per elapsed interval.  The
fading draws a packet triggers come before its own, and a dropped packet
draws no jitter or reorder.  ``SharedLink.transmit`` applies the stages
in one pass per packet; a "uniform in ``[0, m]``" draw is
``m * rng.random()``, which equals ``rng.uniform(0, m)`` bit for bit.  The
RNG is seeded from the per-cell impairment seed
(:func:`repro.experiments.seeds.impairment_seed`), so a re-run of the
same cell replays the exact same impairment pattern bit for bit.  When
no pipeline is attached the link takes its historical code path and the
wire behaviour is bit-identical to the impairment-free model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Union

from ..units import require_fraction, require_non_negative, require_positive


@dataclass(frozen=True)
class IIDLoss:
    """Independent per-packet Bernoulli loss with probability ``rate``."""

    rate: float

    def __post_init__(self) -> None:
        require_fraction("IIDLoss.rate", self.rate)


@dataclass(frozen=True)
class GilbertElliottLoss:
    """Two-state Markov (Gilbert-Elliott) burst loss.

    The chain advances one step per packet: from the good state it
    enters the bad state with ``p_enter_bad``; from the bad state it
    recovers with ``p_exit_bad``.  A packet is then lost with the loss
    probability of the *current* state.  The stationary loss rate is
    ``good_loss + (bad_loss - good_loss) * p_enter_bad / (p_enter_bad +
    p_exit_bad)``; the mean burst length is ``1 / p_exit_bad`` packets.
    """

    p_enter_bad: float
    p_exit_bad: float
    good_loss: float = 0.0
    bad_loss: float = 1.0

    def __post_init__(self) -> None:
        require_fraction("GilbertElliottLoss.p_enter_bad", self.p_enter_bad)
        require_fraction("GilbertElliottLoss.p_exit_bad", self.p_exit_bad)
        require_fraction("GilbertElliottLoss.good_loss", self.good_loss)
        require_fraction("GilbertElliottLoss.bad_loss", self.bad_loss)

    @property
    def stationary_loss_rate(self) -> float:
        total = self.p_enter_bad + self.p_exit_bad
        if total == 0.0:
            return self.good_loss
        bad_share = self.p_enter_bad / total
        return self.good_loss + (self.bad_loss - self.good_loss) * bad_share


#: Either loss model is accepted wherever a loss stage is configured.
LossModel = Union[IIDLoss, GilbertElliottLoss]


@dataclass(frozen=True)
class JitterSpec:
    """Uniform extra one-way delay in ``[0, max_ms]`` per packet."""

    max_ms: float

    def __post_init__(self) -> None:
        require_non_negative("JitterSpec.max_ms", self.max_ms)


@dataclass(frozen=True)
class ReorderSpec:
    """Hold back a ``rate`` fraction of packets by ``extra_delay_ms``.

    A held packet is scheduled ``extra_delay_ms`` later than its FIFO
    position, so any packet serialized within that window overtakes it —
    the same mechanism netem's ``reorder``/``gap`` options use.
    """

    rate: float
    extra_delay_ms: float = 20.0

    def __post_init__(self) -> None:
        require_fraction("ReorderSpec.rate", self.rate)
        require_non_negative("ReorderSpec.extra_delay_ms", self.extra_delay_ms)


@dataclass(frozen=True)
class BandwidthVariationSpec:
    """Block-fading rate variation: every ``interval_ms`` the link rate
    is scaled by a fresh multiplier drawn uniformly from
    ``[1 - amplitude, 1 + amplitude]``."""

    amplitude: float
    interval_ms: float = 250.0

    def __post_init__(self) -> None:
        require_non_negative("BandwidthVariationSpec.amplitude", self.amplitude)
        if self.amplitude >= 1.0:
            from ..errors import ConfigError

            raise ConfigError(
                f"BandwidthVariationSpec.amplitude must be < 1 (the rate must "
                f"stay positive), got {self.amplitude!r}"
            )
        require_positive("BandwidthVariationSpec.interval_ms", self.interval_ms)


@dataclass(frozen=True)
class ImpairmentConfig:
    """Composable per-link impairment stages; ``None`` disables a stage.

    Carried by :class:`repro.netsim.conditions.NetworkConditions`, so it
    is part of every experiment cell's content-addressed fingerprint —
    two cells differing only in impairments cache separately.
    """

    loss: Optional[LossModel] = None
    jitter: Optional[JitterSpec] = None
    reorder: Optional[ReorderSpec] = None
    bandwidth: Optional[BandwidthVariationSpec] = None

    @property
    def enabled(self) -> bool:
        return any((self.loss, self.jitter, self.reorder, self.bandwidth))


class ImpairmentPipeline:
    """Runtime impairment state for one link (one direction).

    :meth:`repro.netsim.link.SharedLink.transmit` decides each packet's
    fate in the same pass that serializes it, so the per-packet logic
    lives there; this object holds what that pass reads and advances:
    the stage parameters, flattened once, the RNG, the Gilbert-Elliott
    and fading state, and the counters.

    Both of a topology's pipelines share one RNG — the discrete-event
    order of ``transmit`` calls is itself deterministic, so a shared
    stream stays reproducible — but each keeps its own Gilbert-Elliott
    and fading state.
    """

    def __init__(self, config: ImpairmentConfig, rng: random.Random, name: str = "impairment"):
        self.config = config
        self.rng = rng
        self.name = name
        #: Optional event tracer (set by the topology when tracing is
        #: on); drops/reorders are reported read-only, after the RNG
        #: draws, so tracing never perturbs the impairment pattern.
        self.tracer = None
        loss = config.loss
        self.loss: Optional[LossModel] = loss
        self.bursty = type(loss) is GilbertElliottLoss
        self.jitter_ms = config.jitter.max_ms if config.jitter is not None else 0.0
        self.reorder: Optional[ReorderSpec] = config.reorder
        self.fading: Optional[BandwidthVariationSpec] = config.bandwidth
        #: Gilbert-Elliott chain state (always good for IID loss).
        self.bad_state = False
        #: Fading: the current rate multiplier and when it is redrawn.
        self.rate_multiplier = 1.0
        self.next_fade_ms = 0.0
        self.packets_seen = 0
        self.packets_dropped = 0
        self.packets_reordered = 0
