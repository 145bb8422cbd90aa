"""The per-segment timers of the TCP and QUIC models, one at a time.

Every segment arms a retransmission timer and every other one a
delayed-ACK timer; almost all are cancelled before they fire.  Both
are queue entries the half-connection holds (``repro.sim``: the entry
*is* the handle), so these tests pin when each is armed, cancelled and
dispatched — in ACK departure instants and exact event counts — and
what a page load pays the event core for them.  The last two tests
count the other side of the same loop: what a delivered DATA frame pays
``netsim``, ``h2`` and ``browser`` together, and what one object's
header block pays ``h2``.
"""

import random
import sys

import pytest

from repro.netsim.conditions import DSL_TESTBED
from repro.netsim.link import SharedLink
from repro.netsim.quic import QuicConnection
from repro.netsim.tcp import ACK_SIZE, DELAYED_ACK_TIMEOUT_MS, MSS, TcpConnection
from repro.sim import Simulator

TRANSPORTS = pytest.mark.parametrize(
    "connection_class", [TcpConnection, QuicConnection], ids=["tcp", "quic"]
)


class SpyLink(SharedLink):
    """A clean link that logs ``(departure, arrival, size, lost)`` of
    every packet; ``loses(index, now)`` picks the ones that occupy the
    link but never arrive."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []
        self.loses = lambda index, now: False

    def transmit(self, size, deliver, *args):
        now = self._sim.now
        lost = self.loses(len(self.log), now)
        if lost:
            deliver = lambda *args: None  # noqa: E731
        arrival = super().transmit(size, deliver, *args)
        self.log.append((now, arrival, size, lost))
        return arrival


def connect(connection_class, drop=()):
    """A server→client connection over spied links; the downlink loses
    the packets whose departure index is in ``drop``."""
    sim = Simulator()
    rng = random.Random(0)
    c = DSL_TESTBED
    down = SpyLink(sim, c.downlink_bytes_per_ms, c.one_way_ms, rng=rng)
    down.loses = lambda index, now: index in drop
    up = SpyLink(sim, c.uplink_bytes_per_ms, c.one_way_ms, rng=rng)
    conn = connection_class(sim, downlink=down, uplink=up, conditions=c, rng=rng)
    received = []
    conn.client.on_data = lambda data: received.append(len(data))
    return sim, conn, down, up, received


def pump(conn, total, chunk=4096):
    """Write ``total`` bytes server→client, ``chunk`` at a time, with
    send-buffer backpressure."""
    left = [total]

    def write():
        while left[0] > 0:
            accepted = conn.server.send(b"x" * min(chunk, left[0]))
            if accepted == 0:
                return
            left[0] -= accepted

    conn.server.on_writable = write
    write()


def arrivals(link):
    return [entry[1] for entry in link.log]


def ack_departures(link):
    assert all(entry[2] == ACK_SIZE for entry in link.log)
    return [entry[0] for entry in link.log]


def assert_drained(sim, conn):
    assert sim.pending_events() == 0
    for half in (conn._s2c, conn._c2s):
        assert half._in_flight == {}
        assert half._ack_timer is None
        assert half.fully_acked


@TRANSPORTS
def test_lone_segment_is_acked_when_the_delayed_ack_timer_fires(connection_class):
    sim, conn, down, up, received = connect(connection_class)
    assert conn.server.send(b"x" * 1000) == 1000
    sim.run()
    (arrival,) = arrivals(down)
    assert ack_departures(up) == [arrival + DELAYED_ACK_TIMEOUT_MS]
    assert received == [1000]
    # The segment, the timer, the ACK: the cancelled RTO is no event.
    assert sim.events_processed == 3
    assert_drained(sim, conn)


@TRANSPORTS
def test_second_segment_acks_at_once_and_the_armed_timer_never_runs(connection_class):
    sim, conn, down, up, received = connect(connection_class)
    assert conn.server.send(b"x" * (2 * MSS)) == 2 * MSS
    sim.run(until=arrivals(down)[0])
    assert conn._s2c._ack_timer is not None  # armed by the first segment
    sim.run()
    first, second = arrivals(down)
    assert second < first + DELAYED_ACK_TIMEOUT_MS
    assert ack_departures(up) == [second]
    assert sum(received) == 2 * MSS
    # Two segments and one ACK; a dispatched timer would make it four
    # (and a second ACK, five).
    assert sim.events_processed == 3
    assert_drained(sim, conn)


@TRANSPORTS
def test_out_of_order_arrival_acks_at_once_and_folds_the_pending_timer(connection_class):
    """Segment 0 arms the timer, segment 1 is lost, segment 2 arrives
    out of order: the immediate ACK stands in for the one the timer
    would have sent, so nothing departs at the timer's deadline and the
    out-of-order arrival arms no timer of its own."""
    sim, conn, down, up, received = connect(connection_class, drop=[1])
    assert conn.server.send(b"x" * (3 * MSS)) == 3 * MSS
    first, _lost, third = arrivals(down)
    sim.run(until=first)
    assert conn._s2c._ack_timer is not None
    sim.run(until=third)
    assert ack_departures(up) == [third]
    assert conn._s2c._ack_timer is None
    sim.run(until=first + DELAYED_ACK_TIMEOUT_MS + 1.0)
    assert ack_departures(up) == [third]
    assert sim.events_processed == 3  # two arrivals and the ACK's own
    # The retransmission timer repairs the hole a second later.
    sim.run()
    assert sim.now > 1_000.0
    assert sum(received) == 3 * MSS
    assert_drained(sim, conn)


@TRANSPORTS
def test_out_of_order_arrival_with_no_timer_pending_arms_none(connection_class):
    sim, conn, down, up, _received = connect(connection_class, drop=[2])
    assert conn.server.send(b"x" * (4 * MSS)) == 4 * MSS
    _first, second, _lost, fourth = arrivals(down)
    sim.run(until=fourth + DELAYED_ACK_TIMEOUT_MS + 1.0)
    assert ack_departures(up) == [second, fourth]
    assert conn._s2c._ack_timer is None
    sim.run()
    assert_drained(sim, conn)


@TRANSPORTS
def test_clean_transfer_leaves_nothing_behind(connection_class):
    sim, conn, _down, _up, received = connect(connection_class)
    pump(conn, 300 * MSS)
    sim.run()
    assert sum(received) == 300 * MSS
    assert_drained(sim, conn)


def test_event_core_calls_per_delivered_segment():
    """Python-level calls into ``repro/sim/`` over a clean 300-segment
    transfer: arming the RTO, queueing the delivery, and per two
    segments one ACK delivery and one delayed-ACK timer — three a
    segment.  A handle object per timer, or a method call to cancel
    one, shows here (it read 8.08 before the queue entry became the
    handle); wall time on a shared host would not.
    """
    sim, conn, down, _up, received = connect(TcpConnection)
    calls = [0]

    def on_event(frame, event, _arg):
        if event == "call" and "/repro/sim/" in frame.f_code.co_filename:
            calls[0] += 1

    sys.setprofile(on_event)
    try:
        pump(conn, 300 * MSS, chunk=MSS)
        sim.run()
    finally:
        sys.setprofile(None)
    assert sum(received) == 300 * MSS
    assert len(down.log) == 300
    assert sim.events_processed == 459
    assert calls[0] / 300 <= 3.5, calls[0]


def test_data_path_calls_per_delivered_frame():
    """Python-level calls into ``repro/{netsim,h2,browser}/`` over one
    page load that is one 300-segment object (and a 2 kB document), per
    DATA frame the client received — the ACK-clocked loop end to end:
    ACK, TCP pump, writable, schedule, cut, segment, deliver, browser.
    Each layer is entered once per frame or segment; a helper call put
    back on that path adds 430 calls here.  It reads 12.20 (24.0 before
    the path was flattened, 15.0 while the default scheduler was a
    wrapper around the priority tree, 12.41 while header blocks were
    parsed and decoded by the receiver), connection set-up, headers and
    the document's parse included; wall time on a shared host would
    not show it.  DATA frames are the tuple records ``_on_data_record``
    receives: header block records arrive there too.
    """
    from repro.html import ResourceSpec, ResourceType, WebsiteSpec
    from repro.replay import replay_site

    spec = WebsiteSpec(
        name="one-object",
        primary_domain="one.example",
        html_size=2_000,
        html_visual_weight=10,
        resources=[ResourceSpec("big.jpg", ResourceType.IMAGE, 300 * MSS)],
    )
    calls = [0]
    frames = [0]

    def on_event(frame, event, _arg):
        if event != "call":
            return
        filename = frame.f_code.co_filename
        if "/repro/netsim/" in filename or "/repro/h2/" in filename or "/repro/browser/" in filename:
            calls[0] += 1
            # A DATA frame is a plain tuple record; a header block's
            # record goes through the same entry point.
            if frame.f_code.co_name == "_on_data_record" and (
                frame.f_locals["record"].__class__ is tuple
            ):
                frames[0] += 1

    sys.setprofile(on_event)
    try:
        result = replay_site(spec)
    finally:
        sys.setprofile(None)
    assert result.timeline.onload is not None
    assert frames[0] == 430
    assert calls[0] / frames[0] <= 12.3, calls[0] / frames[0]


@pytest.mark.parametrize(
    "strategy_name, ceiling", [("no_push", 25.6), ("push_all", 23.0)]
)
def test_header_block_calls_per_object(strategy_name, ceiling):
    """Python-level calls into ``repro/h2/`` over one load of a page of
    100 images of 600 B, per header block queued: a request and a
    response per object under no_push, a PUSH_PROMISE and a response
    under push_all — each entering the layer once on either side
    (encode, queue the record; take the record, stream and priority
    bookkeeping).  It reads 25.49 and 22.94; it read 32.70 and 28.62
    while the receiver parsed and decoded each block's bytes (feed,
    parse, one dispatch lookup, decode), 35.20 and 31.12 while each
    stream transition was a method of the stream, and 59.57 and 51.72
    while control frames were built as frame objects to be serialized,
    the receive side walked an ``isinstance`` ladder and flag
    properties, streams hashed their state enum and every stream read
    settings through properties.  A helper call put back on one side of
    the exchange adds 0.5 per block.  An uncounted warm-up load goes
    first: the HPACK encoder's plan memo is process-wide.
    """
    from repro.html import ResourceSpec, ResourceType, WebsiteSpec
    from repro.html.builder import build_site
    from repro.replay.testbed import ReplayTestbed
    from repro.strategies.simple import NoPushStrategy, PushAllStrategy

    spec = WebsiteSpec(
        name="hundred-images",
        primary_domain="images.example",
        html_size=4_000,
        html_visual_weight=10,
        resources=[
            ResourceSpec(f"i{index}.jpg", ResourceType.IMAGE, 600) for index in range(100)
        ],
    )
    built = build_site(spec)
    strategy = NoPushStrategy() if strategy_name == "no_push" else PushAllStrategy()
    ReplayTestbed(built=built, strategy=strategy).run(seed=1)
    testbed = ReplayTestbed(built=built, strategy=strategy)
    calls = [0]
    blocks = [0]

    def on_event(frame, event, _arg):
        if event != "call":
            return
        filename = frame.f_code.co_filename
        if "/repro/h2/" in filename:
            calls[0] += 1
            if frame.f_code.co_name == "_queue_header_block":
                blocks[0] += 1

    sys.setprofile(on_event)
    try:
        result = testbed.run(seed=1)
    finally:
        sys.setprofile(None)
    assert result.timeline.onload is not None
    assert blocks[0] == 202
    assert calls[0] / blocks[0] <= ceiling, calls[0] / blocks[0]
