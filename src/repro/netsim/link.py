"""Shared bottleneck links.

A :class:`SharedLink` models the serialization point of the client's
access link (``tc``'s token bucket in the paper's testbed).  All TCP
connections of a page load share the same two links — this is what
creates the bandwidth contention between pushed streams and the base
document that the paper observes (e.g. for w10, §5).
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..sim import NO_ARG, Simulator
from ..trace.core import PacketDropped, PacketReordered
from ..units import require_non_negative, require_positive
from .impairment import ImpairmentPipeline


class SharedLink:
    """A FIFO transmission queue with a fixed rate and propagation delay.

    ``transmit`` serializes payloads in arrival order at ``rate`` bytes
    per millisecond, then applies the propagation delay (plus optional
    uniform jitter) before invoking the delivery callback.  Because the
    queue is work-conserving and FIFO, concurrent connections naturally
    share the bottleneck.

    An optional :class:`ImpairmentPipeline` composes loss, jitter,
    reordering, and bandwidth fading onto the link: drops consume link
    time but are never delivered (egress loss, as netem applies it),
    and per-packet extra delay can make later packets overtake earlier
    ones.  ``transmit`` applies it in the same pass that serializes the
    packet.  Without a pipeline the historical clean path runs unchanged.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bytes_per_ms: float,
        propagation_ms: float,
        jitter_ms: float = 0.0,
        rng: Optional[random.Random] = None,
        name: str = "link",
        impairments: Optional[ImpairmentPipeline] = None,
    ):
        require_positive("link rate", rate_bytes_per_ms)
        require_non_negative("link propagation delay", propagation_ms)
        self._sim = sim
        self._rate = rate_bytes_per_ms
        self._propagation = propagation_ms
        self._jitter = jitter_ms
        self._rng = rng or random.Random(0)
        self.name = name
        self._impairments = impairments
        self._busy_until = 0.0
        self.bytes_transmitted = 0
        #: Per-link delivery lane: clean-link arrivals are monotone
        #: (FIFO serialization + constant propagation), so deliveries
        #: queue in O(1); jitter/impairment reordering falls back to
        #: the heap per event inside the lane.
        self._deliver_lane = sim.timer_lane()

    @property
    def rate(self) -> float:
        return self._rate

    @property
    def propagation_ms(self) -> float:
        return self._propagation

    @property
    def impairments(self) -> Optional[ImpairmentPipeline]:
        return self._impairments

    @property
    def queue_delay_ms(self) -> float:
        """Current queueing delay a new arrival would experience."""
        return max(0.0, self._busy_until - self._sim.now)

    def transmit(self, size: int, deliver: Callable, arg1=NO_ARG, arg2=NO_ARG) -> float:
        """Enqueue ``size`` bytes; call ``deliver`` when they arrive.

        Up to two arguments may be carried inline for the delivery
        callback (``deliver(arg1, arg2)``), which lets per-segment hot
        paths avoid allocating a closure per packet.

        Returns the absolute simulated arrival time (for a dropped
        packet, when it would have arrived).
        """
        if size <= 0:
            raise ValueError("transmit size must be positive")
        now = self._sim.now
        busy = self._busy_until
        start = now if now > busy else busy
        pipeline = self._impairments
        if pipeline is None:
            finish = start + size / self._rate
            self._busy_until = finish
            self.bytes_transmitted += size
            delay = self._propagation
            if self._jitter > 0:
                delay += self._rng.uniform(0.0, self._jitter)
            arrival = finish + delay
            self._deliver_lane.schedule_abs(arrival, deliver, arg1, arg2)
            return arrival
        # The impaired path, one pass per packet, in the draw order of
        # the impairment module's determinism contract: fading for the
        # intervals elapsed, the link's own jitter (its own RNG), then
        # Gilbert-Elliott transition, loss, jitter, reorder.
        rng = pipeline.rng
        fading = pipeline.fading
        if fading is None:
            finish = start + size / self._rate
        else:
            while pipeline.next_fade_ms <= now:
                pipeline.rate_multiplier = 1.0 + fading.amplitude * (2.0 * rng.random() - 1.0)
                pipeline.next_fade_ms += fading.interval_ms
            finish = start + size / (self._rate * pipeline.rate_multiplier)
        self._busy_until = finish
        self.bytes_transmitted += size
        delay = self._propagation
        if self._jitter > 0:
            delay += self._jitter * self._rng.random()
        pipeline.packets_seen += 1
        loss = pipeline.loss
        if loss is not None:
            if pipeline.bursty:
                if pipeline.bad_state:
                    if rng.random() < loss.p_exit_bad:
                        pipeline.bad_state = False
                elif rng.random() < loss.p_enter_bad:
                    pipeline.bad_state = True
                probability = loss.bad_loss if pipeline.bad_state else loss.good_loss
            else:
                probability = loss.rate
            if probability > 0.0 and rng.random() < probability:
                # The packet occupied the link but never arrives; the
                # sender's loss recovery (RTO / dup ACKs) repairs it.
                pipeline.packets_dropped += 1
                if pipeline.tracer is not None:
                    pipeline.tracer.emit(PacketDropped, pipeline.name, pipeline.packets_seen)
                return finish + delay
        jitter = pipeline.jitter_ms
        extra = jitter * rng.random() if jitter > 0.0 else 0.0
        reorder = pipeline.reorder
        if reorder is not None and reorder.rate > 0.0 and rng.random() < reorder.rate:
            extra += reorder.extra_delay_ms
            pipeline.packets_reordered += 1
            if pipeline.tracer is not None:
                pipeline.tracer.emit(
                    PacketReordered, pipeline.name, pipeline.packets_seen, reorder.extra_delay_ms
                )
        arrival = finish + (delay + extra)
        self._deliver_lane.schedule_abs(arrival, deliver, arg1, arg2)
        return arrival

    def reset_counters(self) -> None:
        self.bytes_transmitted = 0
