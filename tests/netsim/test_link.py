"""Tests for the shared bottleneck link."""

import pytest

from repro.errors import ConfigError
from repro.netsim.link import SharedLink
from repro.sim import Simulator


def make_link(rate=2000.0, prop=25.0, **kwargs):
    sim = Simulator()
    return sim, SharedLink(sim, rate, prop, **kwargs)


def test_single_transmission_timing():
    sim, link = make_link()
    arrivals = []
    link.transmit(2000, lambda: arrivals.append(sim.now))
    sim.run()
    # 1 ms serialization + 25 ms propagation.
    assert arrivals == [pytest.approx(26.0)]


def test_fifo_queueing_of_concurrent_transmissions():
    sim, link = make_link()
    arrivals = []
    link.transmit(2000, lambda: arrivals.append(("a", sim.now)))
    link.transmit(2000, lambda: arrivals.append(("b", sim.now)))
    sim.run()
    assert arrivals[0] == ("a", pytest.approx(26.0))
    # b serializes after a: starts at 1 ms, finishes at 2, arrives at 27.
    assert arrivals[1] == ("b", pytest.approx(27.0))


def test_queue_drains_and_link_goes_idle():
    sim, link = make_link()
    arrivals = []
    link.transmit(2000, lambda: arrivals.append(sim.now))
    sim.run()
    # A transmission after idle restarts from now, not from busy time.
    link.transmit(2000, lambda: arrivals.append(sim.now))
    sim.run()
    assert arrivals[1] == pytest.approx(arrivals[0] + 1.0 + 25.0)


def test_queue_delay_reported():
    sim, link = make_link()
    link.transmit(4000, lambda: None)
    assert link.queue_delay_ms == pytest.approx(2.0)


def test_byte_counter():
    sim, link = make_link()
    link.transmit(1500, lambda: None)
    link.transmit(500, lambda: None)
    assert link.bytes_transmitted == 2000
    link.reset_counters()
    assert link.bytes_transmitted == 0


def test_rejects_invalid_parameters():
    sim = Simulator()
    nan, inf = float("nan"), float("inf")
    for rate, propagation in ((0, 10), (100, -1), (nan, 10), (inf, 10), (100, nan), (100, inf)):
        with pytest.raises(ConfigError):
            SharedLink(sim, rate, propagation)
    _sim, link = make_link()
    with pytest.raises(ValueError):
        link.transmit(0, lambda: None)


def test_jitter_adds_bounded_delay():
    import random

    sim = Simulator()
    link = SharedLink(sim, 2000.0, 25.0, jitter_ms=10.0, rng=random.Random(1))
    arrivals = []
    for _ in range(20):
        link.transmit(100, lambda: arrivals.append(sim.now))
    sim.run()
    # every arrival must be within [base, base + jitter]
    base = 25.0
    for index, arrival in enumerate(sorted(arrivals)):
        assert arrival >= base
