"""Tests for the TCP model."""

import random

import pytest

from repro.netsim.conditions import DSL_TESTBED, NetworkConditions
from repro.netsim.link import SharedLink
from repro.netsim.tcp import (
    DEFAULT_SEND_BUFFER,
    INITIAL_WINDOW_SEGMENTS,
    MSS,
    TcpConnection,
    _HalfConnection,
)
from repro.sim import Simulator
from tests.support.rtt_reference import ReferenceEstimator


def make_connection(conditions=DSL_TESTBED, seed=0):
    sim = Simulator()
    rng = random.Random(seed)
    down = SharedLink(sim, conditions.downlink_bytes_per_ms, conditions.one_way_ms, rng=rng)
    up = SharedLink(sim, conditions.uplink_bytes_per_ms, conditions.one_way_ms, rng=rng)
    conn = TcpConnection(sim, downlink=down, uplink=up, conditions=conditions, rng=rng)
    return sim, conn


def transfer(sim, conn, size, sender="server"):
    """Send `size` bytes with backpressure; return completion time."""
    received = []
    done = {}
    src = getattr(conn, sender)
    dst = conn.client if sender == "server" else conn.server

    def on_data(data):
        received.append(len(data))
        if sum(received) >= size:
            done["time"] = sim.now

    dst.on_data = on_data
    state = {"left": size}

    def write():
        while state["left"] > 0:
            chunk = min(4096, state["left"])
            accepted = src.send(b"x" * chunk)
            state["left"] -= accepted
            if accepted < chunk:
                return

    src.on_writable = write
    write()
    sim.run()
    assert done, "transfer did not complete"
    assert sum(received) == size
    return done["time"]


def test_small_transfer_fits_initial_window():
    sim, conn = make_connection()
    finish = transfer(sim, conn, 10_000)
    # One-way 25 ms + ~5 ms serialization; well under a second RTT.
    assert finish < 40.0


def test_initial_window_is_ten_segments():
    sim, conn = make_connection()
    # More than IW10 requires at least one extra round trip.
    just_fits = transfer(sim, conn, INITIAL_WINDOW_SEGMENTS * MSS - 100)
    sim2, conn2 = make_connection()
    needs_more = transfer(sim2, conn2, INITIAL_WINDOW_SEGMENTS * MSS + 5 * MSS)
    assert needs_more > just_fits + 20.0  # a round trip apart


def test_large_transfer_approaches_link_rate():
    sim, conn = make_connection()
    size = 1_000_000
    finish = transfer(sim, conn, size)
    serialization = size / DSL_TESTBED.downlink_bytes_per_ms
    # Finish within 2.2x of pure serialization (slow start overhead).
    assert serialization < finish < serialization * 2.2


def test_upload_uses_slower_uplink():
    sim, conn = make_connection()
    down_time = transfer(sim, conn, 100_000, sender="server")
    sim2, conn2 = make_connection()
    up_time = transfer(sim2, conn2, 100_000, sender="client")
    # Uplink is 16x slower.
    assert up_time > down_time * 5


def test_send_buffer_backpressure():
    _sim, conn = make_connection()
    sent = conn.server.send(b"z" * (DEFAULT_SEND_BUFFER + 1000))
    # Only a socket buffer's worth is accepted in one call...
    assert sent == DEFAULT_SEND_BUFFER
    # ...then the pump moves up to one congestion window into flight,
    # freeing exactly that much space again.
    assert conn.server.send_buffer_space == INITIAL_WINDOW_SEGMENTS * MSS
    more = conn.server.send(b"z" * DEFAULT_SEND_BUFFER)
    assert more == INITIAL_WINDOW_SEGMENTS * MSS
    # Now both the window and the buffer are full: nothing is accepted.
    assert conn.server.send(b"z") == 0


def test_set_send_buffer_validates():
    _sim, conn = make_connection()
    with pytest.raises(Exception):
        conn.set_send_buffer(100)


def test_delivery_is_in_order():
    sim, conn = make_connection()
    chunks = []
    conn.client.on_data = lambda d: chunks.append(bytes(d))
    payload = bytes(range(256)) * 100
    state = {"off": 0}

    def write():
        while state["off"] < len(payload):
            accepted = conn.server.send(payload[state["off"] : state["off"] + 2048])
            if accepted == 0:
                return
            state["off"] += accepted

    conn.server.on_writable = write
    write()
    sim.run()
    assert b"".join(chunks) == payload


def test_lossy_transfer_still_completes():
    lossy = NetworkConditions(
        rtt_ms=50.0,
        downlink_bytes_per_ms=DSL_TESTBED.downlink_bytes_per_ms,
        uplink_bytes_per_ms=DSL_TESTBED.uplink_bytes_per_ms,
        loss_rate=0.02,
    )
    sim, conn = make_connection(conditions=lossy, seed=7)
    finish = transfer(sim, conn, 200_000)
    # Slower than loss-free but it must finish correctly.
    assert finish > 100.0


def test_loss_free_transfer_is_deterministic():
    times = set()
    for _ in range(3):
        sim, conn = make_connection()
        times.add(transfer(sim, conn, 123_456))
    assert len(times) == 1


def test_bytes_counters():
    sim, conn = make_connection()
    transfer(sim, conn, 50_000)
    assert conn.server.bytes_sent == 50_000
    assert conn.client.bytes_received == 50_000


def test_fast_retransmit_recovers_quickly():
    """A single lost segment is repaired by dup ACKs, not a 1s RTO."""
    lossy = NetworkConditions(
        rtt_ms=50.0,
        downlink_bytes_per_ms=DSL_TESTBED.downlink_bytes_per_ms,
        uplink_bytes_per_ms=DSL_TESTBED.uplink_bytes_per_ms,
        loss_rate=0.02,
    )
    sim, conn = make_connection(conditions=lossy, seed=11)
    finish = transfer(sim, conn, 400_000)
    # 400 KB is ~200 ms of serialization; with fast retransmit most
    # losses cost round trips.  Losses at the very tail of the stream
    # still need the RTO (no dup ACKs follow them), so allow a couple.
    assert finish < 3_000.0


def make_impaired_connection(impairment, seed=0, impairment_seed=1, cc="reno"):
    from dataclasses import replace

    from repro.netsim.impairment import ImpairmentPipeline

    conditions = replace(DSL_TESTBED, congestion_control=cc, impairment=impairment)
    sim = Simulator()
    rng = random.Random(seed)
    shared = random.Random(impairment_seed)
    down = SharedLink(
        sim,
        conditions.downlink_bytes_per_ms,
        conditions.one_way_ms,
        rng=rng,
        impairments=ImpairmentPipeline(impairment, shared, name="down"),
    )
    up = SharedLink(
        sim,
        conditions.uplink_bytes_per_ms,
        conditions.one_way_ms,
        rng=rng,
        impairments=ImpairmentPipeline(impairment, shared, name="up"),
    )
    conn = TcpConnection(sim, downlink=down, uplink=up, conditions=conditions, rng=rng)
    return sim, conn


def test_stale_ack_is_ignored():
    sim, conn = make_connection()
    transfer(sim, conn, 30_000)
    out = conn.server._out
    snd_una = out._snd_una
    cwnd = out._cc.cwnd
    out._on_ack(snd_una - 1000)  # stale: below the cumulative point
    assert out._snd_una == snd_una
    assert out._cc.cwnd == cwnd
    assert out._dup_acks == 0


def test_duplicate_ack_without_flight_is_not_counted():
    # Delayed duplicates of the final ACK must not arm fast retransmit
    # once everything is acked and nothing is in flight.
    sim, conn = make_connection()
    transfer(sim, conn, 30_000)
    out = conn.server._out
    assert out._flight_size() == 0
    for _ in range(5):
        out._on_ack(out._snd_una)
    assert out._dup_acks == 0


def test_three_duplicate_acks_trigger_fast_retransmit():
    sim, conn = make_connection()
    out = conn.server._out
    conn.server.send(b"x" * 50_000)
    sim.run(until=5.0)  # some segments on the wire, nothing acked yet
    assert out._flight_size() > 0
    cwnd = out._cc.cwnd
    for _ in range(3):
        out._on_ack(out._snd_una)
    assert out._cc.cwnd < cwnd  # multiplicative decrease applied


def test_duplicate_acks_count_while_only_retransmissions_are_in_flight():
    # Retransmitted segments wait outside ``_in_flight``; they are still
    # data in flight for RFC 5681's duplicate-ACK rule.
    sim, conn = make_connection()
    out = conn.server._out
    conn.server.send(b"x" * 4000)
    for seq in list(out._in_flight):
        out._on_timeout(seq)  # every segment retransmitted once
    assert not out._in_flight and len(out._retransmitted) == 3
    timer = out._retransmitted[0][0]
    for _ in range(3):
        out._on_ack(out._snd_una)
    assert out._dup_acks == 3
    assert out._retransmitted[0][0] is not timer  # the third one resent it


def test_cubic_transfer_completes_in_order():
    from dataclasses import replace

    conditions = replace(DSL_TESTBED, congestion_control="cubic")
    sim, conn = make_connection(conditions=conditions)
    transfer(sim, conn, 300_000)


def test_impaired_transfer_delivers_exact_bytes():
    from repro.netsim.impairment import GilbertElliottLoss, ImpairmentConfig, JitterSpec

    impairment = ImpairmentConfig(
        loss=GilbertElliottLoss(p_enter_bad=0.05, p_exit_bad=0.3),
        jitter=JitterSpec(4.0),
    )
    for cc in ("reno", "cubic"):
        sim, conn = make_impaired_connection(impairment, seed=3, cc=cc)
        payload = bytes(range(256)) * 800  # 204800 recognizable bytes
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
        sim.run(until=600_000)
        assert b"".join(received) == payload
        drops = (
            conn.server._out._data_link.impairments.packets_dropped
            + conn.server._out._ack_link.impairments.packets_dropped
        )
        assert drops > 0, "impairment never fired; test is vacuous"


def test_impaired_transfer_is_seed_deterministic():
    from repro.netsim.impairment import IIDLoss, ImpairmentConfig

    impairment = ImpairmentConfig(loss=IIDLoss(0.03))

    def run_once():
        sim, conn = make_impaired_connection(impairment, seed=5, impairment_seed=9)
        return transfer(sim, conn, 150_000)

    assert run_once() == run_once()


@pytest.mark.parametrize("lossy", [False, True], ids=["clean", "lossy_dsl"])
def test_ack_loop_estimator_is_sample_rtt_fed_the_same_samples(lossy, monkeypatch):
    """``_on_ack`` carries the RFC 6298 arithmetic inline and derives
    the RTO once per ACK.  After every ACK of a whole transfer ``(srtt,
    rttvar, rto)`` must be, float for float, what the reference
    estimator reaches by being fed the same samples — every newly
    acknowledged, never-retransmitted segment, in sequence order — one
    at a time."""
    from repro.netsim.conditions import LOSSY_DSL

    if lossy:
        sim, conn = make_impaired_connection(LOSSY_DSL.impairment, seed=2, impairment_seed=11)
    else:
        sim, conn = make_connection()
    sender = conn._s2c
    reference = ReferenceEstimator()
    log = []
    on_ack = _HalfConnection._on_ack
    on_timeout = _HalfConnection._on_timeout
    retransmit = _HalfConnection._retransmit
    retransmissions = []

    def checked_on_ack(half, ack):
        if half is sender and ack > half._snd_una:
            now = sim.now
            for seq in sorted(half._in_flight):
                _timer, sent_at, end = half._in_flight[seq]
                if end <= ack:
                    reference._sample_rtt(now - sent_at)
        on_ack(half, ack)
        if half is sender:
            log.append((half._srtt, half._rttvar, half._rto, bool(retransmissions)))
            assert log[-1][:3] == reference.state()

    def checked_on_timeout(half, seq):
        if half is sender and (seq in half._in_flight or seq in half._retransmitted):
            reference.back_off()
        on_timeout(half, seq)

    def noted_retransmit(half, seq, length):
        if half is sender:
            retransmissions.append(seq)
        retransmit(half, seq, length)

    monkeypatch.setattr(_HalfConnection, "_on_ack", checked_on_ack)
    monkeypatch.setattr(_HalfConnection, "_on_timeout", checked_on_timeout)
    monkeypatch.setattr(_HalfConnection, "_retransmit", noted_retransmit)
    transfer(sim, conn, 600_000)
    assert len(log) > 150
    assert len({entry[:3] for entry in log}) > 100  # the estimator moved
    # The lossy transfer retransmits, and the ACKs after its first
    # retransmission are checked on the same single loop.
    after_loss = [entry for entry in log if entry[3]]
    if lossy:
        assert len(after_loss) > 5
    else:
        assert after_loss == []


@pytest.mark.xfail(
    strict=True,
    reason="known deviation (EXPERIMENTS.md): every expired per-segment RTO "
    "doubles the shared _rto, so a burst of n losses backs off 2^n, not once "
    "(RFC 6298 5.5); _QuicHalf._on_timeout has the same line",
)
def test_one_loss_burst_backs_the_rto_off_once():
    """One burst, one back-off: a 10 ms outage mid-transfer loses a
    dozen in-flight segments whose timers expire within 3 ms of each
    other.  That is one congestion event, so the timeout may double
    once; the model takes 200 ms to the 60 s cap in nine expiries."""

    from tests.netsim.test_transport_timers import connect, pump

    sim, conn, down, _up, _received = connect(TcpConnection)
    pump(conn, 400_000)
    sim.run(until=150.0)
    before = conn._s2c._rto
    assert before == 200.0  # RTT samples taken, at the RFC 6298 floor
    down.loses = lambda index, now: 150.0 <= now < 160.0
    sim.run(until=400.0)  # past every timer the outage left to expire
    assert sum(lost for *_packet, lost in down.log) >= 10
    assert conn._s2c._rto <= 2.0 * before
