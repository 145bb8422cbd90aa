"""Tests for the QUIC-flavored transport model."""

import random

import pytest

from repro.errors import NetworkError
from repro.netsim.conditions import DSL_TESTBED, NetworkConditions
from repro.netsim.link import SharedLink
from repro.netsim.quic import QuicConnection, _QuicHalf
from repro.netsim.tcp import MSS, TcpConnection
from repro.netsim.transport import DEFAULT_SEND_BUFFER
from repro.sim import Simulator
from tests.support.rtt_reference import ReferenceEstimator


def make_quic_connection(conditions=DSL_TESTBED, seed=0, tracer=None):
    sim = Simulator()
    rng = random.Random(seed)
    down = SharedLink(sim, conditions.downlink_bytes_per_ms, conditions.one_way_ms, rng=rng)
    up = SharedLink(sim, conditions.uplink_bytes_per_ms, conditions.one_way_ms, rng=rng)
    conn = QuicConnection(
        sim, downlink=down, uplink=up, conditions=conditions, rng=rng, tracer=tracer
    )
    return sim, conn


def make_impaired_quic_connection(impairment, seed=0, impairment_seed=1, cc="reno"):
    from dataclasses import replace

    from repro.netsim.impairment import ImpairmentPipeline

    conditions = replace(
        DSL_TESTBED, congestion_control=cc, impairment=impairment, transport="quic"
    )
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
    conn = QuicConnection(sim, downlink=down, uplink=up, conditions=conditions, rng=rng)
    return sim, conn


def transfer(sim, conn, size, sender="server"):
    """Send `size` control-stream bytes with backpressure; return finish time."""
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


def stream_transfer(sim, conn, payloads, sender="server", times=None):
    """Send one resource stream per payload; return {stream_id: bytes}.

    ``times`` (optional dict) collects each stream's fin-delivery time.
    """
    src = getattr(conn, sender)
    dst = conn.client if sender == "server" else conn.server
    received = {sid: [] for sid in payloads}
    fins = {sid: 0 for sid in payloads}

    def on_stream_data(stream_id, data, fin):
        received[stream_id].append(bytes(data))
        if fin:
            fins[stream_id] += 1
            if times is not None:
                times[stream_id] = sim.now

    dst.on_stream_data = on_stream_data
    state = {sid: 0 for sid in payloads}

    def write():
        for sid, payload in payloads.items():
            while state[sid] < len(payload):
                last = state[sid] + MSS >= len(payload)
                accepted = src.send_stream(
                    sid, payload[state[sid] : state[sid] + MSS], fin=last
                )
                state[sid] += accepted
                if accepted == 0:
                    return

    src.on_writable = write
    write()
    sim.run()
    for sid in payloads:
        assert fins[sid] == 1, f"stream {sid} fin delivered {fins[sid]} times"
    return {sid: b"".join(chunks) for sid, chunks in received.items()}


def test_small_transfer_fits_initial_window():
    sim, conn = make_quic_connection()
    finish = transfer(sim, conn, 10_000)
    assert finish < 40.0


def test_large_transfer_approaches_link_rate():
    sim, conn = make_quic_connection()
    size = 1_000_000
    finish = transfer(sim, conn, size)
    serialization = size / DSL_TESTBED.downlink_bytes_per_ms
    assert serialization < finish < serialization * 2.2


def test_control_stream_delivery_is_in_order():
    sim, conn = make_quic_connection()
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


def test_stream_plane_delivers_each_stream_exactly():
    sim, conn = make_quic_connection()
    payloads = {
        1: bytes(range(256)) * 40,
        3: bytes(reversed(range(256))) * 25,
        5: b"q" * 9_999,
    }
    delivered = stream_transfer(sim, conn, payloads)
    assert delivered == payloads


def test_bare_fin_is_sent_with_the_window_full():
    # An empty frame carries only the stream-closing flag; it occupies no
    # window, so it goes on the wire at once even when the flight fills
    # the congestion window.
    sim, conn = make_quic_connection()
    out = conn.server._out
    fins = []
    conn.client.on_stream_data = lambda sid, span, fin: fin and fins.append((sid, sim.now))
    conn.server.send_stream(1, b"x" * int(out._cc.cwnd))
    assert out._flight_bytes == out._cc.cwnd and not out._buffer
    packets = out._next_pn
    assert conn.server.send_stream(3, b"", fin=True) == 0
    assert out._next_pn == packets + 1
    sim.run()
    assert [sid for sid, _at in fins] == [3]


def test_send_buffer_backpressure():
    _sim, conn = make_quic_connection()
    sent = conn.server.send(b"z" * (2 * DEFAULT_SEND_BUFFER))
    assert sent <= DEFAULT_SEND_BUFFER
    # The buffer plus the initial congestion window is all that fits
    # before the receiver drains anything.
    total = sent
    while True:
        more = conn.server.send(b"z" * DEFAULT_SEND_BUFFER)
        if more == 0:
            break
        total += more
    assert conn.server.send(b"z") == 0
    assert total <= 2 * DEFAULT_SEND_BUFFER


def test_set_send_buffer_validates():
    _sim, conn = make_quic_connection()
    with pytest.raises(NetworkError, match="MSS"):
        conn.set_send_buffer(100)


def test_bytes_counters():
    sim, conn = make_quic_connection()
    transfer(sim, conn, 50_000)
    assert conn.server.bytes_sent == 50_000
    assert conn.client.bytes_received == 50_000
    assert conn.server.all_sent_delivered


def test_loss_free_transfer_is_deterministic():
    times = set()
    for _ in range(3):
        sim, conn = make_quic_connection()
        times.add(transfer(sim, conn, 123_456))
    assert len(times) == 1


def test_lossy_transfer_still_completes():
    lossy = NetworkConditions(
        rtt_ms=50.0,
        downlink_bytes_per_ms=DSL_TESTBED.downlink_bytes_per_ms,
        uplink_bytes_per_ms=DSL_TESTBED.uplink_bytes_per_ms,
        loss_rate=0.02,
    )
    sim, conn = make_quic_connection(conditions=lossy, seed=7)
    finish = transfer(sim, conn, 200_000)
    assert finish > 100.0


def test_impaired_streams_deliver_exact_bytes():
    from repro.netsim.impairment import IIDLoss, ImpairmentConfig

    impairment = ImpairmentConfig(loss=IIDLoss(rate=0.03))
    sim, conn = make_impaired_quic_connection(impairment, seed=3)
    payloads = {
        1: bytes(range(256)) * 200,
        3: bytes(reversed(range(256))) * 150,
    }
    delivered = stream_transfer(sim, conn, payloads)
    assert delivered == payloads
    drops = (
        conn._s2c._data_link.impairments.packets_dropped
        + conn._s2c._ack_link.impairments.packets_dropped
    )
    assert drops > 0, "impairment never fired; test is vacuous"


def test_impaired_transfer_is_seed_deterministic():
    from repro.netsim.impairment import IIDLoss, ImpairmentConfig

    impairment = ImpairmentConfig(loss=IIDLoss(0.03))

    def run_once():
        sim, conn = make_impaired_quic_connection(impairment, seed=5, impairment_seed=9)
        return transfer(sim, conn, 150_000)

    assert run_once() == run_once()


def test_ack_loop_estimator_is_sample_rtt_fed_the_same_samples(monkeypatch):
    """QUIC twin of the TCP test of the same name: ``_on_ack_arrival``
    runs RFC 6298 inline and derives the RTO once per ACK.  After every
    ACK of a ``LOSSY_DSL`` transfer ``(srtt, rttvar, rto)`` must be,
    float for float, what the reference estimator reaches by being fed
    each newly acknowledged packet, in packet-number order, one at a
    time."""
    from repro.netsim.conditions import LOSSY_DSL

    sim, conn = make_impaired_quic_connection(LOSSY_DSL.impairment, seed=2, impairment_seed=11)
    sender = conn._s2c
    reference = ReferenceEstimator()
    log = []
    retransmissions = []
    on_ack_arrival = _QuicHalf._on_ack_arrival
    on_timeout = _QuicHalf._on_timeout
    retransmit = _QuicHalf._retransmit

    def checked_on_ack_arrival(half, count, largest):
        if half is sender and count > half._acked_count:
            now = sim.now
            for pn in sorted(half._rcv_order[half._acked_count : count]):
                if pn in half._in_flight:
                    reference._sample_rtt(now - half._in_flight[pn][5])
        on_ack_arrival(half, count, largest)
        if half is sender:
            log.append((half._srtt, half._rttvar, half._rto, bool(retransmissions)))
            assert log[-1][:3] == reference.state()

    def checked_on_timeout(half, pn):
        if half is sender and pn in half._in_flight:
            reference.back_off()
        on_timeout(half, pn)

    def noted_retransmit(half, pn, entry, kind):
        if half is sender:
            retransmissions.append(pn)
        retransmit(half, pn, entry, kind)

    monkeypatch.setattr(_QuicHalf, "_on_ack_arrival", checked_on_ack_arrival)
    monkeypatch.setattr(_QuicHalf, "_on_timeout", checked_on_timeout)
    monkeypatch.setattr(_QuicHalf, "_retransmit", noted_retransmit)
    transfer(sim, conn, 600_000)
    assert len(log) > 150
    assert len({entry[:3] for entry in log}) > 100  # the estimator moved
    assert len([entry for entry in log if entry[3]]) > 5  # ACKs after a loss


def test_loss_recovery_emits_stream_recovered_trace():
    """Filling a loss-created gap in a resource stream is traced."""
    from repro.netsim.impairment import IIDLoss, ImpairmentConfig
    from repro.trace import Tracer

    impairment = ImpairmentConfig(loss=IIDLoss(rate=0.05))
    from dataclasses import replace

    from repro.netsim.impairment import ImpairmentPipeline

    conditions = replace(DSL_TESTBED, impairment=impairment, transport="quic")
    sim = Simulator()
    rng = random.Random(3)
    shared = random.Random(1)
    down = SharedLink(
        sim,
        conditions.downlink_bytes_per_ms,
        conditions.one_way_ms,
        rng=rng,
        impairments=ImpairmentPipeline(impairment, shared, name="down"),
    )
    up = SharedLink(sim, conditions.uplink_bytes_per_ms, conditions.one_way_ms, rng=rng)
    tracer = Tracer()
    tracer.attach(sim)
    conn = QuicConnection(
        sim, downlink=down, uplink=up, conditions=conditions, rng=rng, tracer=tracer
    )
    stream_transfer(sim, conn, {1: b"a" * 120_000, 3: b"b" * 120_000})
    recovered = [
        e for e in tracer.events() if type(e).__name__ == "QuicStreamRecovered"
    ]
    assert recovered, "no gap was ever filled; raise the loss rate"
    assert all(e.recovered_bytes > 0 for e in recovered)
    assert {e.stream_id for e in recovered} <= {1, 3}


def test_no_cross_stream_blocking_on_loss():
    """A loss on one stream must not delay another stream's contiguous
    bytes: two resources under the same loss finish far sooner on QUIC
    streams than serialized on one TCP byte stream."""
    from repro.netsim.impairment import IIDLoss, ImpairmentConfig

    # Baseline: stream 3 alone, loss-free.
    payload = b"c" * 30_000
    sim, conn = make_quic_connection()
    times = {}
    stream_transfer(sim, conn, {3: payload}, times=times)
    baseline = times[3]

    # Lossy: both streams under 5% iid loss; stream 3 may lose its own
    # packets but is never stalled behind stream 1's retransmissions.
    impairment = ImpairmentConfig(loss=IIDLoss(rate=0.05))
    quic_times = []
    tcp_times = []
    for seed in range(6):
        sim2, conn2 = make_impaired_quic_connection(
            impairment, seed=seed, impairment_seed=seed
        )
        times = {}
        stream_transfer(sim2, conn2, {1: b"a" * 30_000, 3: payload}, times=times)
        quic_times.append(max(times.values()))

    # TCP serializes both resources on one byte stream, so stream 1's
    # losses stall stream 3's bytes behind the retransmission.
    from dataclasses import replace

    from repro.netsim.impairment import ImpairmentPipeline

    for seed in range(6):
        conditions = replace(DSL_TESTBED, impairment=impairment)
        sim3 = Simulator()
        rng = random.Random(seed)
        shared = random.Random(seed)
        down = SharedLink(
            sim3,
            conditions.downlink_bytes_per_ms,
            conditions.one_way_ms,
            rng=rng,
            impairments=ImpairmentPipeline(impairment, shared, name="down"),
        )
        up = SharedLink(
            sim3,
            conditions.uplink_bytes_per_ms,
            conditions.one_way_ms,
            rng=rng,
            impairments=ImpairmentPipeline(impairment, shared, name="up"),
        )
        tcp = TcpConnection(sim3, downlink=down, uplink=up, conditions=conditions, rng=rng)
        got = {"n": 0}
        tcp_done = {}

        def on_data(data):
            got["n"] += len(data)
            if got["n"] >= 60_000:
                tcp_done["t"] = sim3.now

        tcp.client.on_data = on_data
        state = {"left": 60_000}

        def write():
            while state["left"] > 0:
                accepted = tcp.server.send(b"a" * min(4096, state["left"]))
                state["left"] -= accepted
                if accepted == 0:
                    return

        tcp.server.on_writable = write
        write()
        sim3.run()
        tcp_times.append(tcp_done["t"])

    quic_times.sort()
    tcp_times.sort()
    # Median QUIC completion of the second stream stays close to the
    # loss-free baseline; median TCP completion of the full byte stream
    # pays the head-of-line penalty on top.
    assert quic_times[len(quic_times) // 2] < tcp_times[len(tcp_times) // 2]
    assert quic_times[len(quic_times) // 2] < baseline * 3.0
