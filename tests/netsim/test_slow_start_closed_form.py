"""One object over the DSL testbed lands when IW10 slow-start arithmetic
says it should.

The TCP model's other timing checks are loose ("within 2.2x of
serialisation", "a round trip apart").  This one works the arrival time
of an object's last octet out by hand from the documented sender and
receiver policy and holds the simulator to it within one segment time:

* the sender starts with ``INITIAL_WINDOW_SEGMENTS`` (10) full segments
  back to back on an idle link, each charged ``HEADER_OVERHEAD`` octets;
* the receiver ACKs every ``DELAYED_ACK_SEGMENTS`` (2nd) segment, and a
  lone odd segment after ``DELAYED_ACK_TIMEOUT_MS`` (5 ms);
* every ACK below ``ssthresh`` grows the window by
  ``min(acked, 2 MSS)`` (Reno slow start) and releases what the window
  then allows, serialised behind whatever the link still holds.

The sizes stay within two flights: one segment, exactly IW10, one
segment past it, and 40 000 octets (28 segments).

Loss-free QUIC is then held to TCP's instant exactly, on those sizes and
on two that need more flights (100 000 and 2 000 000 octets).
"""

import random
from dataclasses import replace

import pytest

from repro.netsim.conditions import DSL_TESTBED
from repro.netsim.congestion import INITIAL_SSTHRESH
from repro.netsim.link import SharedLink
from repro.netsim.quic import QuicConnection
from repro.netsim.tcp import (
    ACK_SIZE,
    DELAYED_ACK_SEGMENTS,
    DELAYED_ACK_TIMEOUT_MS,
    HEADER_OVERHEAD,
    INITIAL_WINDOW_SEGMENTS,
    MSS,
    TcpConnection,
)
from repro.sim import Simulator

#: Serialisation time of one full segment on the downlink.
SEGMENT_MS = (MSS + HEADER_OVERHEAD) / DSL_TESTBED.downlink_bytes_per_ms


def slow_start_arrival_ms(size, conditions=DSL_TESTBED):
    """Arrival time of the last octet of ``size`` octets written at t = 0."""
    mss = conditions.mss
    one_way = conditions.one_way_ms
    lengths = [mss] * (size // mss) + ([size % mss] if size % mss else [])
    wire_ms = [(length + HEADER_OVERHEAD) / conditions.downlink_bytes_per_ms for length in lengths]
    ack_ms = ACK_SIZE / conditions.uplink_bytes_per_ms

    # First flight: IW10 back to back from t = 0.
    first = min(len(lengths), INITIAL_WINDOW_SEGMENTS)
    link_free = 0.0
    arrivals = []
    for index in range(first):
        link_free += wire_ms[index]
        arrivals.append(link_free + one_way)
    if first == len(lengths):
        return arrivals[-1]

    # The first flight's ACKs, as the receiver sends them: one per
    # DELAYED_ACK_SEGMENTS segments, the timer for an odd remainder.
    acks = []
    for end in range(DELAYED_ACK_SEGMENTS, first + 1, DELAYED_ACK_SEGMENTS):
        acks.append((arrivals[end - 1], sum(lengths[end - DELAYED_ACK_SEGMENTS : end])))
    remainder = first % DELAYED_ACK_SEGMENTS
    if remainder:
        acks.append((arrivals[-1] + DELAYED_ACK_TIMEOUT_MS, sum(lengths[first - remainder : first])))

    # Second flight: each ACK frees what it acknowledges and grows the
    # window by min(acked, 2 MSS); the link serialises in order.
    cwnd = float(INITIAL_WINDOW_SEGMENTS * mss)
    flight = sum(lengths[:first])
    sent = first
    last = arrivals[-1]
    for at_client, acked in acks:
        at_server = at_client + ack_ms + one_way
        assert cwnd < INITIAL_SSTHRESH  # still in slow start
        flight -= acked
        cwnd += min(acked, 2 * mss)
        while sent < len(lengths) and flight < cwnd:
            link_free = max(link_free, at_server) + wire_ms[sent]
            flight += lengths[sent]
            last = link_free + one_way
            sent += 1
    assert sent == len(lengths), "the size needs a third flight"
    return last


def simulated_arrival_ms(size, conditions=DSL_TESTBED):
    """Write ``size`` octets as one record at t = 0; return when the
    client holds the last of them."""
    sim = Simulator()
    rng = random.Random(0)
    down = SharedLink(sim, conditions.downlink_bytes_per_ms, conditions.one_way_ms, rng=rng)
    up = SharedLink(sim, conditions.uplink_bytes_per_ms, conditions.one_way_ms, rng=rng)
    conn = TcpConnection(sim, downlink=down, uplink=up, conditions=conditions, rng=rng)
    conn.set_send_buffer(max(size, MSS))
    done = []
    conn.client.on_record = lambda record: done.append(sim.now)
    assert conn.server.send_record(size, "object")
    sim.run()
    assert len(done) == 1
    return done[0]


@pytest.mark.parametrize(
    "size",
    [
        MSS,
        INITIAL_WINDOW_SEGMENTS * MSS,
        INITIAL_WINDOW_SEGMENTS * MSS + MSS,
        40_000,
    ],
    ids=["1-mss", "iw10", "iw10-plus-1-mss", "40000"],
)
def test_last_byte_lands_within_one_segment_time_of_slow_start(size):
    expected = slow_start_arrival_ms(size)
    assert abs(simulated_arrival_ms(size) - expected) <= SEGMENT_MS


def test_arithmetic_matches_the_hand_worked_cases():
    """The arithmetic itself, on the DSL numbers: 1 500 wire octets take
    0.75 ms at 2 000 octets/ms, one way is 25 ms, an ACK takes 0.32 ms
    up the 125 octets/ms uplink."""
    assert slow_start_arrival_ms(MSS) == pytest.approx(25.75)
    assert slow_start_arrival_ms(10 * MSS) == pytest.approx(32.5)
    # Segment 11 leaves on the first ACK, for segments 1-2: 1.5 + 25 +
    # 0.32 + 25 = 51.82, then 0.75 on the wire and 25 down.
    assert slow_start_arrival_ms(11 * MSS) == pytest.approx(77.57)
    # 28 segments: 18 in the second flight, link-bound from 51.82 (each
    # ACK, 1.5 ms apart, releases four): 17 full and one of 580 octets.
    assert slow_start_arrival_ms(40_000) == pytest.approx(51.82 + 17 * 0.75 + 620 / 2000 + 25)


def quic_arrival_ms(size, conditions=DSL_TESTBED):
    """``simulated_arrival_ms`` over QUIC: the object goes as one
    resource stream closed by its fin."""
    conditions = replace(conditions, transport="quic")
    sim = Simulator()
    rng = random.Random(0)
    down = SharedLink(sim, conditions.downlink_bytes_per_ms, conditions.one_way_ms, rng=rng)
    up = SharedLink(sim, conditions.uplink_bytes_per_ms, conditions.one_way_ms, rng=rng)
    conn = QuicConnection(sim, downlink=down, uplink=up, conditions=conditions, rng=rng)
    conn.set_send_buffer(max(size, MSS))
    done = []
    conn.client.on_stream_data = lambda sid, span, fin: fin and done.append(sim.now)
    assert conn.server.send_stream(1, bytes(size), fin=True) == size
    sim.run()
    assert len(done) == 1
    return done[0]


@pytest.mark.parametrize(
    "size",
    [
        MSS,
        INITIAL_WINDOW_SEGMENTS * MSS,
        INITIAL_WINDOW_SEGMENTS * MSS + MSS,
        40_000,
        100_000,
        2_000_000,
    ],
    ids=["1-mss", "iw10", "iw10-plus-1-mss", "40000", "100000", "2000000"],
)
def test_loss_free_quic_lands_the_last_byte_when_tcp_does(size):
    """Both transports share the controller, the estimator, delayed ACKs
    and per-packet overhead, and a clean link has nothing for packet
    numbers or per-stream reassembly to change: the last octet arrives
    at the same simulated instant, float for float."""
    assert quic_arrival_ms(size) == simulated_arrival_ms(size)
