"""Reference model of one impaired link, written from the contract.

``repro.netsim.link.SharedLink.transmit`` serializes a packet and, when
the link carries an :class:`~repro.netsim.impairment.ImpairmentPipeline`,
decides its fate in the same call.  This module spells out what that
call promises (the ``impairment`` module's docstring), one step per
line, over plain fields, so
``tests/property/test_property_impairment.py`` has something
independent to hold the link to: the same drop decision, the same
arrival instant float for float, and the same counters, packet by
packet.

The contract, per packet sent at ``now``:

1. bandwidth fading: one multiplier draw per interval boundary elapsed
   up to ``now``; the packet serializes at ``rate * multiplier`` after
   whatever is queued ahead of it;
2. the link's own jitter (``NetworkConditions.jitter_ms``), drawn from
   the link's RNG, not the impairment RNG;
3. the Gilbert-Elliott state transition, then the loss draw; a dropped
   packet draws nothing more;
4. the jitter draw, then the reorder draw.

The one-way delay is propagation plus link jitter, plus the impairment
extra (jitter plus reorder hold), summed in that grouping.  Draws use
``random.uniform`` where the contract says "uniform".
"""

import random
from typing import List, Optional, Tuple

from repro.netsim.impairment import GilbertElliottLoss, ImpairmentConfig


class ReferenceImpairedLink:
    """One direction of an impaired link, fate and timing per packet."""

    def __init__(
        self,
        rate: float,
        propagation_ms: float,
        config: ImpairmentConfig,
        rng: random.Random,
        jitter_ms: float = 0.0,
        link_rng: Optional[random.Random] = None,
    ):
        self.rate = rate
        self.propagation_ms = propagation_ms
        self.config = config
        self.rng = rng
        self.jitter_ms = jitter_ms
        self.link_rng = link_rng
        self.busy_until = 0.0
        self.bad_state = False
        self.multiplier = 1.0
        self.next_fade = 0.0
        self.packets_seen = 0
        self.packets_dropped = 0
        self.packets_reordered = 0

    def send(self, now: float, size: int) -> Tuple[bool, float]:
        """``(dropped, arrival)`` of ``size`` bytes sent at ``now``; a
        dropped packet's arrival is when it would have arrived."""
        config = self.config
        rng = self.rng

        # 1. fading, then serialization behind the queue
        if config.bandwidth is not None:
            while self.next_fade <= now:
                swing = 2.0 * rng.random() - 1.0
                self.multiplier = 1.0 + config.bandwidth.amplitude * swing
                self.next_fade += config.bandwidth.interval_ms
            rate = self.rate * self.multiplier
        else:
            rate = self.rate
        start = max(now, self.busy_until)
        finish = start + size / rate
        self.busy_until = finish

        # 2. the link's own jitter
        delay = self.propagation_ms
        if self.jitter_ms > 0:
            delay += self.link_rng.uniform(0.0, self.jitter_ms)

        # 3. loss
        self.packets_seen += 1
        loss = config.loss
        if loss is not None:
            if isinstance(loss, GilbertElliottLoss):
                if self.bad_state:
                    if rng.random() < loss.p_exit_bad:
                        self.bad_state = False
                elif rng.random() < loss.p_enter_bad:
                    self.bad_state = True
                probability = loss.bad_loss if self.bad_state else loss.good_loss
            else:
                probability = loss.rate
            if probability > 0.0 and rng.random() < probability:
                self.packets_dropped += 1
                return True, finish + delay

        # 4. jitter, then reorder
        extra = 0.0
        if config.jitter is not None and config.jitter.max_ms > 0.0:
            extra += rng.uniform(0.0, config.jitter.max_ms)
        reorder = config.reorder
        if reorder is not None and reorder.rate > 0.0 and rng.random() < reorder.rate:
            extra += reorder.extra_delay_ms
            self.packets_reordered += 1
        return False, finish + (delay + extra)

    def counters(self) -> List[int]:
        return [self.packets_seen, self.packets_dropped, self.packets_reordered]
