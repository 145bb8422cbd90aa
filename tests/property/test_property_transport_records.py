"""The by-reference transport contract, under packet chaos.

Segments and packets carry lengths and offsets, not content; the write
log (TCP) and the per-packet spans (QUIC) are what the receiver reads
back.  Whatever the link does to whole packets — drop, delay past later
ones, deliver twice — and however a full send buffer chops the writes:

* TCP hands the receiver exactly the sender's items, in stream order:
  the bytes of ``send`` writes and the very objects given to
  ``send_record``, each record once, when its last byte is in order;
* QUIC delivers the control stream's bytes in order and, per resource
  stream, spans whose content concatenates to the source, fin once;
* ``bytes_delivered`` equals the bytes enqueued.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.conditions import DSL_TESTBED
from repro.netsim.quic import QuicConnection
from repro.netsim.tcp import TcpConnection
from repro.sim import Simulator
from repro.span import Span

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
            self._sim.schedule_call(delay, deliver, *args)


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


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 20_000)), min_size=1, max_size=20
    ),
    rates=chaos,
    link_seed=st.integers(0, 2**20),
)
@settings(max_examples=120, deadline=None)
def test_quic_streams_reassemble_their_source(writes, rates, link_seed):
    """Stream 0 is the control stream (``send``); 1-3 carry spans."""
    sim, conn = _connect(QuicConnection, link_seed, rates)
    cursors = {}
    plan = []
    for sid, size in writes:
        start = cursors.get(sid, 0)
        size = min(size, len(SOURCE) - start)
        if size:
            plan.append((sid, start, start + size))
            cursors[sid] = start + size
    last_for = {sid: index for index, (sid, _a, _b) in enumerate(plan)}
    control = []
    streams = {}
    fins = {}

    def on_stream_data(sid, span, fin):
        assert span.source is SOURCE
        streams.setdefault(sid, []).append(span.tobytes())
        fins[sid] = fins.get(sid, 0) + bool(fin)

    conn.client.on_data = control.append
    conn.client.on_stream_data = on_stream_data
    state = {"index": 0, "offset": 0}

    def write():
        while state["index"] < len(plan):
            sid, start, stop = plan[state["index"]]
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
    for sid in (1, 2, 3):
        assert b"".join(streams.get(sid, [])) == SOURCE[: cursors.get(sid, 0)]
        assert fins.get(sid, 0) == (1 if sid in cursors else 0)
    assert conn.server.bytes_sent == conn.client.bytes_received == sum(cursors.values())
    assert conn.server.all_sent_delivered
