"""Tests for the packet impairment pipeline."""

import random

import pytest

from repro.errors import ConfigError
from repro.netsim.impairment import (
    BandwidthVariationSpec,
    GilbertElliottLoss,
    IIDLoss,
    ImpairmentConfig,
    ImpairmentPipeline,
    JitterSpec,
    ReorderSpec,
)
from repro.netsim.link import SharedLink
from repro.sim import Simulator


def make_pipeline(config, seed=0):
    return ImpairmentPipeline(config, random.Random(seed), name="test")


# ----------------------------------------------------------------- specs
def test_iid_loss_validates_rate():
    with pytest.raises(ConfigError):
        IIDLoss(rate=-0.1)
    with pytest.raises(ConfigError):
        IIDLoss(rate=1.5)
    assert IIDLoss(rate=0.02).rate == 0.02


def test_gilbert_elliott_validates_probabilities():
    with pytest.raises(ConfigError):
        GilbertElliottLoss(p_enter_bad=-0.01, p_exit_bad=0.5)
    with pytest.raises(ConfigError):
        GilbertElliottLoss(p_enter_bad=0.01, p_exit_bad=1.5)
    with pytest.raises(ConfigError):
        GilbertElliottLoss(p_enter_bad=0.01, p_exit_bad=0.5, bad_loss=2.0)


def test_gilbert_elliott_stationary_rate():
    # pi_bad = p_enter / (p_enter + p_exit); rate = pi_bad * bad_loss.
    ge = GilbertElliottLoss(p_enter_bad=0.1, p_exit_bad=0.3, bad_loss=1.0)
    assert ge.stationary_loss_rate == pytest.approx(0.25)
    half = GilbertElliottLoss(p_enter_bad=0.1, p_exit_bad=0.3, bad_loss=0.5)
    assert half.stationary_loss_rate == pytest.approx(0.125)


def test_bandwidth_variation_validates_amplitude():
    with pytest.raises(ConfigError):
        BandwidthVariationSpec(amplitude=1.0)  # would allow zero rate
    with pytest.raises(ConfigError):
        BandwidthVariationSpec(amplitude=0.2, interval_ms=0.0)
    assert BandwidthVariationSpec(amplitude=0.99).amplitude == 0.99


def test_config_enabled_property():
    assert not ImpairmentConfig().enabled
    assert ImpairmentConfig(loss=IIDLoss(0.01)).enabled
    assert ImpairmentConfig(jitter=JitterSpec(5.0)).enabled
    assert ImpairmentConfig(reorder=ReorderSpec(0.01)).enabled
    assert ImpairmentConfig(bandwidth=BandwidthVariationSpec(0.2)).enabled


# -------------------------------------------------------------- pipeline
# The pipeline holds state; ``SharedLink.transmit`` decides each
# packet's fate, so every test below sends packets through a link.
PROPAGATION = 25.0


def make_link(config, seed=0):
    sim = Simulator()
    link = SharedLink(sim, 2000.0, PROPAGATION, impairments=make_pipeline(config, seed))
    return sim, link


def send(link, size=1000):
    """Send one packet now: ``(dropped, arrival, serialization finish)``."""
    dropped_before = link.impairments.packets_dropped
    arrival = link.transmit(size, lambda: None)
    return link.impairments.packets_dropped > dropped_before, arrival, link._busy_until


def drops(config, seed, count):
    _sim, link = make_link(config, seed)
    return [send(link)[0] for _ in range(count)], link.impairments


def test_iid_loss_rate_converges():
    dropped, pipeline = drops(ImpairmentConfig(loss=IIDLoss(0.1)), 7, 20_000)
    assert sum(dropped) / 20_000 == pytest.approx(0.1, abs=0.01)
    assert pipeline.packets_dropped == sum(dropped)
    assert pipeline.packets_seen == 20_000


def test_gilbert_elliott_losses_are_bursty():
    # Same stationary rate, vastly different burst structure: GE with
    # mean burst 10 must produce longer runs of consecutive drops than
    # an i.i.d. process of equal rate.
    rate = 0.1
    ge_cfg = ImpairmentConfig(
        loss=GilbertElliottLoss(p_enter_bad=rate / (1 - rate) * 0.1, p_exit_bad=0.1)
    )
    iid_cfg = ImpairmentConfig(loss=IIDLoss(rate))

    def longest_run(config, seed):
        longest = current = 0
        for dropped in drops(config, seed, 20_000)[0]:
            if dropped:
                current += 1
                longest = max(longest, current)
            else:
                current = 0
        return longest

    assert longest_run(ge_cfg, 3) > 2 * longest_run(iid_cfg, 3)


def test_pipeline_is_deterministic_per_seed():
    config = ImpairmentConfig(
        loss=GilbertElliottLoss(p_enter_bad=0.02, p_exit_bad=0.3),
        jitter=JitterSpec(5.0),
        reorder=ReorderSpec(0.05),
    )

    def fates(seed):
        _sim, link = make_link(config, seed)
        return [send(link) for _ in range(500)]

    # Fresh pipeline, same seed: identical decisions and delays.
    assert fates(11) == fates(11)


def test_different_seeds_differ():
    config = ImpairmentConfig(loss=IIDLoss(0.2), jitter=JitterSpec(5.0))

    def fates(seed):
        _sim, link = make_link(config, seed)
        return [send(link) for _ in range(200)]

    assert fates(1) != fates(2)


def test_dropped_packets_skip_jitter_and_reorder_draws():
    # A drop must consume exactly one uniform draw (the loss decision) so
    # surviving-packet jitter does not depend on how the drop would have
    # jittered.  Compare against a hand-rolled RNG replay.
    config = ImpairmentConfig(loss=IIDLoss(0.5), jitter=JitterSpec(10.0))
    _sim, link = make_link(config, 5)
    shadow = random.Random(5)
    for _ in range(200):
        dropped, arrival, finish = send(link)
        assert dropped == (shadow.random() < 0.5)
        if not dropped:
            assert arrival == finish + (PROPAGATION + shadow.random() * 10.0)


def test_jitter_bounded_by_max():
    config = ImpairmentConfig(jitter=JitterSpec(3.0))
    _sim, link = make_link(config, 1)
    for _ in range(1000):
        dropped, arrival, finish = send(link)
        assert not dropped
        assert 0.0 <= arrival - finish - PROPAGATION <= 3.0 + 1e-9


def test_reorder_adds_extra_delay():
    config = ImpairmentConfig(reorder=ReorderSpec(rate=1.0, extra_delay_ms=25.0))
    _sim, link = make_link(config, 1)
    dropped, arrival, finish = send(link)
    assert not dropped
    assert arrival == finish + (PROPAGATION + 25.0)
    assert link.impairments.packets_reordered == 1


def multipliers_at(config, times, seed=9):
    """The fading multiplier each of packets sent at ``times`` got."""
    sim, link = make_link(config, seed)
    seen = []

    def send_one():
        send(link)
        seen.append(link.impairments.rate_multiplier)

    for when in times:
        sim.schedule(when, send_one)
    sim.run()
    return seen


def test_bandwidth_multiplier_piecewise_constant():
    config = ImpairmentConfig(
        bandwidth=BandwidthVariationSpec(amplitude=0.4, interval_ms=100.0)
    )
    first, at_10, at_99, later, at_351 = multipliers_at(config, (0.0, 10.0, 99.0, 350.0, 351.0))
    assert first == at_10 == at_99  # constant within one interval
    assert 0.6 <= first <= 1.4
    assert 0.6 <= later <= 1.4  # skips intervals lazily
    assert at_351 == later


def test_bandwidth_multiplier_scales_serialization():
    config = ImpairmentConfig(
        bandwidth=BandwidthVariationSpec(amplitude=0.4, interval_ms=100.0)
    )
    _sim, link = make_link(config, 9)
    _dropped, _arrival, finish = send(link, size=2000)
    assert finish == 2000 / (2000.0 * link.impairments.rate_multiplier)
    assert finish != 1.0


def test_bandwidth_multiplier_is_one_when_disabled():
    assert multipliers_at(ImpairmentConfig(loss=IIDLoss(0.01)), (0.0, 12345.0), 1) == [1.0, 1.0]
