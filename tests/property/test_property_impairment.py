"""Property-based tests for the impairment pipeline + TCP recovery.

* whatever the loss/jitter/reorder parameters, a TCP transfer through
  the impaired links delivers the exact byte stream, in order;
* re-running one impaired transfer from the same seeds is bit-identical
  (same finish time, same drop/reorder counters); and
* packet by packet, an impaired ``SharedLink`` drops what the reference
  transcription of the per-packet contract drops and delivers the rest
  at the reference's arrival instants, float for float.
"""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.conditions import DSL_TESTBED
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
from repro.netsim.tcp import TcpConnection
from repro.sim import Simulator
from tests.support.impairment_reference import ReferenceImpairedLink


@st.composite
def impairment_configs(draw):
    if draw(st.booleans()):
        loss = IIDLoss(rate=draw(st.floats(0.0, 0.15)))
    else:
        loss = GilbertElliottLoss(
            p_enter_bad=draw(st.floats(0.0, 0.1)),
            p_exit_bad=draw(st.floats(0.05, 1.0)),
            bad_loss=draw(st.floats(0.2, 1.0)),
        )
    return ImpairmentConfig(
        loss=loss,
        jitter=JitterSpec(draw(st.floats(0.0, 20.0))),
        reorder=ReorderSpec(
            rate=draw(st.floats(0.0, 0.2)),
            extra_delay_ms=draw(st.floats(0.0, 40.0)),
        ),
    )


def run_transfer(config, payload, seed, impairment_seed, cc="reno"):
    """One impaired transfer; returns (finish_time, received, counters)."""
    conditions = replace(DSL_TESTBED, congestion_control=cc, impairment=config)
    sim = Simulator()
    rng = random.Random(seed)
    shared = random.Random(impairment_seed)
    down = SharedLink(
        sim,
        conditions.downlink_bytes_per_ms,
        conditions.one_way_ms,
        rng=rng,
        impairments=ImpairmentPipeline(config, shared, name="down"),
    )
    up = SharedLink(
        sim,
        conditions.uplink_bytes_per_ms,
        conditions.one_way_ms,
        rng=rng,
        impairments=ImpairmentPipeline(config, shared, name="up"),
    )
    conn = TcpConnection(sim, downlink=down, uplink=up, conditions=conditions, rng=rng)
    received = []
    conn.client.on_data = received.append
    state = {"sent": 0}

    def write():
        while state["sent"] < len(payload):
            accepted = conn.server.send(payload[state["sent"] :])
            state["sent"] += accepted
            if accepted == 0:
                return

    conn.server.on_writable = write
    write()
    sim.run(until=3_600_000)
    counters = (
        down.impairments.packets_seen,
        down.impairments.packets_dropped,
        down.impairments.packets_reordered,
        up.impairments.packets_seen,
        up.impairments.packets_dropped,
        up.impairments.packets_reordered,
    )
    return sim.now, b"".join(received), counters


@given(
    config=impairment_configs(),
    payload=st.binary(min_size=1, max_size=60_000),
    cc=st.sampled_from(["reno", "cubic"]),
)
@settings(max_examples=25, deadline=None)
def test_impaired_delivery_is_complete_and_in_order(config, payload, cc):
    _, received, _ = run_transfer(config, payload, seed=1, impairment_seed=2, cc=cc)
    assert received == payload


@given(
    config=impairment_configs(),
    seed=st.integers(0, 2**16),
    impairment_seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_impaired_transfer_is_bit_identical_per_seed(config, seed, impairment_seed):
    payload = bytes(range(256)) * 100
    first = run_transfer(config, payload, seed, impairment_seed)
    second = run_transfer(config, payload, seed, impairment_seed)
    assert first == second
    assert first[1] == payload


@st.composite
def link_impairments(draw):
    """Every stage optional, fading included; loss none, IID or GE."""
    loss = draw(
        st.one_of(
            st.none(),
            st.builds(IIDLoss, st.floats(0.0, 0.5)),
            st.builds(
                GilbertElliottLoss,
                p_enter_bad=st.floats(0.0, 0.3),
                p_exit_bad=st.floats(0.0, 1.0),
                good_loss=st.floats(0.0, 0.1),
                bad_loss=st.floats(0.0, 1.0),
            ),
        )
    )
    return ImpairmentConfig(
        loss=loss,
        jitter=draw(st.none() | st.builds(JitterSpec, st.floats(0.0, 20.0))),
        reorder=draw(
            st.none()
            | st.builds(ReorderSpec, st.floats(0.0, 1.0), st.floats(0.0, 40.0))
        ),
        bandwidth=draw(
            st.none()
            | st.builds(
                BandwidthVariationSpec, st.floats(0.0, 0.9), st.floats(0.5, 60.0)
            )
        ),
    )


@given(
    config=link_impairments(),
    link_jitter=st.sampled_from([0.0, 3.0]),
    packets=st.lists(
        st.tuples(st.floats(0.0, 30.0), st.integers(1, 3000), st.booleans()),
        min_size=1,
        max_size=120,
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_impaired_link_matches_the_per_packet_reference(config, link_jitter, packets, seed):
    """Two links sharing one impairment RNG, as a topology's do; each
    packet goes out on one of them after a random gap.  Same drop flag,
    same arrival (returned and delivered), same counters."""
    sim = Simulator()
    shared = random.Random(seed)
    link_rng = random.Random(seed + 1)
    links = [
        SharedLink(
            sim,
            rate,
            propagation,
            jitter_ms=link_jitter,
            rng=link_rng,
            impairments=ImpairmentPipeline(config, shared, name=name),
        )
        for rate, propagation, name in ((2000.0, 25.0, "down"), (125.0, 25.0, "up"))
    ]
    ref_shared = random.Random(seed)
    ref_link_rng = random.Random(seed + 1)
    references = [
        ReferenceImpairedLink(
            rate, propagation, config, ref_shared, jitter_ms=link_jitter, link_rng=ref_link_rng
        )
        for rate, propagation in ((2000.0, 25.0), (125.0, 25.0))
    ]
    outcomes = []
    delivered = {}

    def deliver(index, _unused):
        delivered[index] = sim.now

    def send(index, side):
        link = links[side]
        dropped_before = link.impairments.packets_dropped
        arrival = link.transmit(packets[index][1], deliver, index, None)
        dropped = link.impairments.packets_dropped > dropped_before
        outcomes.append((sim.now, dropped, arrival))

    when = 0.0
    for index, (gap, _size, side) in enumerate(packets):
        when += gap
        sim.schedule(when, send, index, int(side))
    sim.run()

    expected = [
        (at, *references[int(side)].send(at, size))
        for (at, _dropped, _arrival), (_gap, size, side) in zip(outcomes, packets)
    ]
    assert outcomes == expected
    for index, (_at, dropped, arrival) in enumerate(expected):
        if dropped:
            assert index not in delivered
        else:
            assert delivered[index] == arrival
    for link, reference in zip(links, references):
        pipeline = link.impairments
        assert [
            pipeline.packets_seen,
            pipeline.packets_dropped,
            pipeline.packets_reordered,
        ] == reference.counters()
