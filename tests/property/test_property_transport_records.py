"""The by-reference transport contract, under packet chaos.

Segments and packets carry lengths and offsets, not content; the write
log (TCP) and the per-packet spans (QUIC) are what the receiver reads
back.  Whatever the link does to whole packets — drop, delay past later
ones, deliver twice — and however a full send buffer chops the writes:

* TCP hands the receiver exactly the sender's items, in stream order:
  the bytes of ``send`` writes and the very objects given to
  ``send_record``, each record once, when its last byte is in order;
* QUIC delivers the control stream's bytes in order and the very
  objects given to ``send_record`` there, each once, when its last
  octet is in order, and, per resource stream, spans whose content
  concatenates to the source, fin once;
* ``bytes_delivered`` equals the bytes enqueued;
* a QUIC ACK that names a prefix of the receiver's arrival order acts
  exactly as one that spells out floor and ranges.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.conditions import DSL_TESTBED
from repro.netsim.quic import PACKET_THRESHOLD, QuicConnection, _QuicHalf
from repro.netsim.tcp import (
    ACK_SIZE,
    DELAYED_ACK_SEGMENTS,
    DELAYED_ACK_TIMEOUT_MS,
    TcpConnection,
)
from repro.sim import CANCELLED, Simulator
from repro.span import Span
from tests.support.rtt_reference import sample_rtt

SOURCE = random.Random(12).randbytes(420_000)


class ChaosLink:
    """A link that drops, delays (so later packets overtake) and
    duplicates whole packets; stands in for ``SharedLink``."""

    def __init__(self, sim, rng, drop, reorder, duplicate):
        self._sim = sim
        self._rng = rng
        self._drop, self._reorder, self._duplicate = drop, reorder, duplicate
        self.bytes_transmitted = 0

    def transmit(self, size, deliver, *args):
        rng = self._rng
        self.bytes_transmitted += size
        if rng.random() < self._drop:
            return
        copies = 2 if rng.random() < self._duplicate else 1
        for _ in range(copies):
            delay = 5.0 + (rng.uniform(0.0, 40.0) if rng.random() < self._reorder else 0.0)
            self._sim.schedule(delay, deliver, *args)


chaos = st.fixed_dictionaries(
    {
        "drop": st.floats(0.0, 0.25),
        "reorder": st.floats(0.0, 0.4),
        "duplicate": st.floats(0.0, 0.3),
    }
)

#: ("bytes", size) is a ``send`` of that many control bytes (larger than
#: the 16 KiB send buffer means partial accepts); ("record", size) is one
#: atomic record of that wire size.
tcp_writes = st.lists(
    st.one_of(
        st.tuples(st.just("bytes"), st.integers(1, 40_000)),
        st.tuples(st.just("record"), st.integers(1, 16_384)),
    ),
    min_size=1,
    max_size=25,
)


def _connect(cls, link_seed, chaos_rates):
    sim = Simulator()
    rng = random.Random(link_seed)
    down = ChaosLink(sim, rng, **chaos_rates)
    up = ChaosLink(sim, rng, **chaos_rates)
    return sim, cls(sim, down, up, DSL_TESTBED, rng=random.Random(link_seed + 1))


def _merged(items):
    """Adjacent ``bytes`` joined: chunk boundaries are not part of the
    contract, stream order relative to the records is."""
    merged = []
    for item in items:
        if isinstance(item, bytes) and merged and isinstance(merged[-1], bytes):
            merged[-1] += item
        else:
            merged.append(item)
    return merged


@given(writes=tcp_writes, rates=chaos, link_seed=st.integers(0, 2**20))
@settings(max_examples=120, deadline=None)
def test_tcp_delivers_the_senders_items_in_order(writes, rates, link_seed):
    sim, conn = _connect(TcpConnection, link_seed, rates)
    cursor = 0
    items = []
    for kind, size in writes:
        if kind == "bytes":
            items.append(SOURCE[size : 2 * size])
        else:
            # Records carry consecutive windows of one body, as the
            # DATA frames of a response do.
            items.append(Span(SOURCE, cursor, cursor + size))
            cursor += size
    received = []
    conn.client.on_data = received.append
    conn.client.on_record = received.append
    state = {"index": 0, "offset": 0}

    def write():
        while state["index"] < len(items):
            item = items[state["index"]]
            if isinstance(item, bytes):
                state["offset"] += conn.server.send(item[state["offset"] :])
                if state["offset"] < len(item):
                    return
            elif not conn.server.send_record(len(item), item):
                return
            state["index"] += 1
            state["offset"] = 0

    conn.server.on_writable = write
    write()
    sim.run()

    assert state["index"] == len(items)
    got, sent = _merged(received), _merged(items)
    assert len(got) == len(sent)
    for mine, theirs in zip(got, sent):
        if isinstance(theirs, bytes):
            assert mine == theirs
        else:
            assert mine is theirs  # the object itself, never a copy
    spans = [item for item in received if isinstance(item, Span)]
    assert b"".join(span.tobytes() for span in spans) == SOURCE[:cursor]
    total = sum(size for _kind, size in writes)
    assert conn.server.bytes_sent == conn.client.bytes_received == total
    assert conn.server.all_sent_delivered


#: ``(stream id, size)``: stream 0 is the control stream's bytes, 1-3
#: carry spans, and ``"record"`` is one atomic control-stream record of
#: that wire size (at most the 16 KiB send buffer).
quic_writes = st.lists(
    st.tuples(st.sampled_from([0, 1, 2, 3, "record"]), st.integers(1, 20_000)),
    min_size=1,
    max_size=20,
)


def _drive_quic(conn_cls, writes, rates, link_seed):
    """Write ``writes`` through chaos links; check the delivery contract
    and return every delivery with its simulated time, the finish time,
    the event count and where the sender's RTT estimator and window
    ended up."""
    sim, conn = _connect(conn_cls, link_seed, rates)
    cursors = {}
    plan = []
    #: Each record's end offset in the control stream, bytes included.
    ends = {}
    control_octets = 0
    for sid, size in writes:
        if sid == "record":
            record = Span(SOURCE, 0, min(size, 16_384))  # opaque to the transport
            control_octets += len(record)
            ends[record] = control_octets
            plan.append((sid, record, None))
            continue
        start = cursors.get(sid, 0)
        size = min(size, len(SOURCE) - start)
        if size:
            plan.append((sid, start, start + size))
            cursors[sid] = start + size
            control_octets += size if sid == 0 else 0
    last_for = {sid: index for index, (sid, _a, _b) in enumerate(plan)}
    control = []
    records = []
    streams = {}
    fins = {}
    deliveries = []

    def on_data(data):
        control.append(data)
        deliveries.append((sim.now, 0, len(data)))

    def on_record(record):
        # Handed over when the control stream's in-order point reaches
        # its last octet: what the receiver has, less the resource
        # streams' share.
        stream_octets = sum(len(piece) for pieces in streams.values() for piece in pieces)
        assert conn.client.bytes_received - stream_octets == ends[record]
        records.append(record)
        deliveries.append((sim.now, "record", ends[record]))

    def on_stream_data(sid, span, fin):
        assert span.source is SOURCE
        streams.setdefault(sid, []).append(span.tobytes())
        fins[sid] = fins.get(sid, 0) + bool(fin)
        deliveries.append((sim.now, sid, span.start, span.stop, fin))

    conn.client.on_data = on_data
    conn.client.on_record = on_record
    conn.client.on_stream_data = on_stream_data
    state = {"index": 0, "offset": 0}

    def write():
        while state["index"] < len(plan):
            sid, start, stop = plan[state["index"]]
            if sid == "record":
                record = start
                if not conn.server.send_record(len(record), record):
                    return
                state["index"] += 1
                continue
            begin = start + state["offset"]
            if sid == 0:
                accepted = conn.server.send(SOURCE[begin:stop])
            else:
                fin = state["index"] == last_for[sid]
                accepted = conn.server.send_stream(sid, Span(SOURCE, begin, stop), fin=fin)
            state["offset"] += accepted
            if begin + accepted < stop:
                return
            state["index"] += 1
            state["offset"] = 0

    conn.server.on_writable = write
    write()
    sim.run()

    assert state["index"] == len(plan)
    assert b"".join(control) == SOURCE[: cursors.get(0, 0)]
    # Each record once, in stream order: the very objects written.
    assert len(records) == len(ends)
    assert all(mine is theirs for mine, theirs in zip(records, ends))
    for sid in (1, 2, 3):
        assert b"".join(streams.get(sid, [])) == SOURCE[: cursors.get(sid, 0)]
        assert fins.get(sid, 0) == (1 if sid in cursors else 0)
    total = sum(cursors.values()) + sum(len(record) for record in ends)
    assert conn.server.bytes_sent == conn.client.bytes_received == total
    assert conn.server.all_sent_delivered
    sender = conn._s2c
    estimator = (sender._srtt, sender._rttvar, sender._rto, sender._cc.cwnd)
    return deliveries, sim.now, sim.events_processed, estimator


@given(writes=quic_writes, rates=chaos, link_seed=st.integers(0, 2**20))
@settings(max_examples=120, deadline=None)
def test_quic_streams_reassemble_their_source(writes, rates, link_seed):
    _drive_quic(QuicConnection, writes, rates, link_seed)


class _RangesAckHalf(_QuicHalf):
    """Oracle: the ACK spelled out as RFC 9000 does — a cumulative floor
    plus every number received above it, matched against the whole
    flight on arrival, each packet fed to the reference estimator.
    ``_QuicHalf`` sends how many packets the receiver has instead and
    reads them off the arrival order."""

    _sample_rtt = sample_rtt

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._floor = -1
        self._above = set()

    def _on_packet_arrival(self, pn, frame):
        duplicate = pn <= self._floor or pn in self._above
        gap_before = bool(self._above)
        if not duplicate:
            if pn == self._floor + 1:
                self._floor = pn
                while self._floor + 1 in self._above:
                    self._floor += 1
                    self._above.discard(self._floor)
            else:
                self._above.add(pn)
            self._deliver_frame(frame)
        if self._above or (duplicate and not gap_before):
            self._send_ack_now()
            return
        self._packets_since_ack += 1
        if self._packets_since_ack >= DELAYED_ACK_SEGMENTS:
            self._send_ack_now()
        elif self._ack_timer is None:
            self._ack_timer = self._ack_lane.schedule(
                DELAYED_ACK_TIMEOUT_MS, self._send_ack_now
            )

    def _send_ack_now(self):
        if self._ack_timer is not None:
            self._ack_timer[CANCELLED] = True
            self._ack_timer = None
        self._packets_since_ack = 0
        self._ack_link.transmit(
            ACK_SIZE, self._on_ranges_ack, self._floor, tuple(sorted(self._above))
        )

    def _on_ranges_ack(self, floor, above):
        in_flight = self._in_flight
        ranges = set(above)
        largest = max(floor, above[-1]) if above else floor
        if largest > self._largest_acked:
            self._largest_acked = largest
        newly_acked = 0
        now = self._sim.now
        for pn in [pn for pn in in_flight if pn <= floor or pn in ranges]:
            _sid, _offset, _span, _fin, timer, sent_at, size = in_flight.pop(pn)
            timer[CANCELLED] = True
            self._flight_bytes -= size
            newly_acked += size
            self._sample_rtt(now - sent_at)
        lost = [pn for pn in in_flight if pn + PACKET_THRESHOLD <= self._largest_acked]
        if newly_acked > 0:
            self._cc.on_ack(newly_acked, now)
        if lost:
            self._cc.on_fast_retransmit(now)
            for pn in lost:
                entry = in_flight.pop(pn)
                entry[4][CANCELLED] = True
                self._flight_bytes -= entry[6]
                self._retransmit(pn, entry, "fast")
        self._pump()
        if self._buffered < self._max_buffer and self.endpoint.on_writable is not None:
            self.endpoint.on_writable()


class _RangesAckConnection(QuicConnection):
    _half = _RangesAckHalf


@given(writes=quic_writes, rates=chaos, link_seed=st.integers(0, 2**20))
@settings(max_examples=120, deadline=None)
def test_quic_ack_by_count_is_the_ack_by_ranges(writes, rates, link_seed):
    """Same deliveries at the same instants, same event count, same
    floats in the RTT estimator: lost, late, overtaking and duplicated
    ACKs included."""
    assert _drive_quic(QuicConnection, writes, rates, link_seed) == _drive_quic(
        _RangesAckConnection, writes, rates, link_seed
    )
