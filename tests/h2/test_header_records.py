"""Header blocks as records, pinned to the bytes path.

Between two of our endpoints, over TCP or on QUIC's control stream, a
header block — a HEADERS or PUSH_PROMISE frame and any CONTINUATIONs —
travels as one transport record, a :class:`~repro.h2.frames.HeaderBlock`,
and the receiver takes the header list from it instead of parsing and
HPACK-decoding the block.  Each case holds that shortcut to what the
bytes path gives: the same header list as a decoder of the record's
block, the same octets at the same stream offsets and times (and, over
QUIC, the same packets) when the send buffer takes a block in parts,
and no decode on a page load.
"""

import string
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.h2 import H2Connection, Settings
from repro.h2.frames import HeaderBlock, header_block_frames
from repro.h2.hpack import HpackDecoder
from repro.h2.hpack import decoder as hpack_decoder
from repro.mechanisms.h2quic import H2OverQuicConnection
from repro.netsim import DSL_TESTBED, LOSSY_DSL, Topology
from repro.sim import Simulator
from repro.trace import Tracer

REQUEST = [
    (":method", "GET"),
    (":scheme", "https"),
    (":authority", "example.com"),
    (":path", "/"),
]


class _BytesHeaderBlocks:
    """Header blocks sent as bytes, as a foreign peer sends them: each
    record queued is replaced by its frames."""

    def _queue_header_block(self, *args, **kwargs):
        super()._queue_header_block(*args, **kwargs)
        queue = self._control_queue
        queue.extend(header_block_frames(queue.pop()))


class _BytesH2Connection(_BytesHeaderBlocks, H2Connection):
    pass


class _BytesH2OverQuicConnection(_BytesHeaderBlocks, H2OverQuicConnection):
    pass


#: Per transport: our connection, and the same with header blocks as bytes.
_CLASSES = {
    "tcp": (H2Connection, _BytesH2Connection),
    "quic": (H2OverQuicConnection, _BytesH2OverQuicConnection),
}


def _pair(cls=H2Connection, local=None, tracer=None, transport="tcp"):
    """An established client/server pair of ``cls`` over ``transport``."""
    sim = Simulator()
    if tracer is not None:
        tracer.attach(sim)
    topo = Topology(sim, replace(DSL_TESTBED, transport=transport))
    topo.add_host("1.1.1.1", ["example.com"])
    topo.prewarm_dns("example.com")
    pair = {}

    def on_conn(tcp):
        pair["server"] = cls(tcp.server, "server", settings=local, tracer=tracer)
        pair["client"] = cls(tcp.client, "client", settings=local, tracer=tracer)

    topo.open_connection("example.com", on_conn)
    sim.run()
    return sim, pair["client"], pair["server"]


# ---------------------------------------------------------------------------
# the same header list
# ---------------------------------------------------------------------------

_NAME = st.sampled_from(
    ["x-a", "X-A", "x-Mixed-Case", "X-MIXED-CASE", "accept", "Cache-Control", "content-type"]
)
_VALUE = st.text(string.ascii_letters + string.digits + "-/.=;", max_size=48)
#: A field as a tuple or, as callers may pass one, a list.
_FIELD = st.builds(
    lambda name, value, as_list: [name, value] if as_list else (name, value),
    _NAME,
    _VALUE,
    st.booleans(),
)
_FIELDS = st.lists(_FIELD, max_size=8)


def _tap(conn, decoder, decoded):
    """Feed each header block record ``conn`` receives to ``decoder``."""
    endpoint = conn._endpoint
    on_record = endpoint.on_record

    def tapped(record):
        if record.__class__ is HeaderBlock:
            decoded.append(decoder.decode(record.block))
        on_record(record)

    endpoint.on_record = tapped


@settings(max_examples=40, deadline=None)
@given(
    exchanges=st.lists(st.tuples(_FIELDS, _FIELDS, _FIELDS), min_size=1, max_size=6),
    table_size=st.sampled_from([128, 4_096]),
)
def test_each_receiver_gets_what_a_decoder_of_the_block_returns(exchanges, table_size):
    """Requests one way; a PUSH_PROMISE and two responses the other.
    Mixed-case names and repeats make the dynamic table index, and a
    128-octet table evicts.  Each list handed to ``on_request`` /
    ``on_response`` / ``on_push_promise`` equals what a decoder of the
    record's block returns, and is a list of its own."""
    local = Settings(header_table_size=table_size)
    sim, client, server = _pair(local=local)
    decoded = {"client": [], "server": []}
    for conn in (client, server):
        _tap(conn, HpackDecoder(table_size), decoded[conn.role])
    received = {"client": [], "server": []}
    sent = []

    def on_request(stream_id, headers, priority):
        received["server"].append(headers)
        index = stream_id // 2
        pushed, response = exchanges[index][1], exchanges[index][2]
        promise = REQUEST[:3] + [(":path", f"/pushed/{index}")] + pushed
        response = [(":status", "200")] + response
        sent.extend((promise, response))
        promised = server.push(stream_id, promise)
        server.respond(stream_id, response, end_stream=True)
        server.respond(promised, [(":status", "200")], end_stream=True)

    server.on_request = on_request
    client.on_response = lambda stream_id, headers: received["client"].append(headers)
    client.on_push_promise = lambda parent, promised, headers: received["client"].append(headers)
    for index, (request, _, _) in enumerate(exchanges):
        request = REQUEST[:3] + [(":path", f"/{index}")] + request
        sent.append(request)
        client.request(request)
    sim.run()

    assert len(received["server"]) == len(exchanges)
    assert len(received["client"]) == 3 * len(exchanges)
    for role in ("client", "server"):
        assert received[role] == decoded[role]
        for headers in received[role]:
            assert headers.__class__ is list
            assert all(field.__class__ is tuple for field in headers)
            assert not any(headers is mine for mine in sent)
    # The receivers' own decoders never ran: their tables are empty.
    assert len(client._decoder.table) == len(server._decoder.table) == 0


# ---------------------------------------------------------------------------
# the same octets at the same offsets and times
# ---------------------------------------------------------------------------

#: A response header block of about 4 kB, written while the send buffer
#: is nearly full of the first stream's DATA.
_BIG_RESPONSE = [(":status", "200"), ("x-fill", "v" * 5_000)]


def _short_buffer_load(cls, transport):
    """Stream 1 fills the server's send buffer with DATA; stream 3's
    large response HEADERS is then queued with few octets free.  The
    server's writes as ``(time, stream offset after)``, how many wrote
    part of a header block, every packet either link carries as
    ``(time, size, receiver, packet number / sequence / ACK)``, the
    responses and the whole trace."""
    tracer = Tracer()
    sim, client, server = _pair(cls, tracer=tracer, transport=transport)
    half = server._endpoint._out
    writes, partial, packets = [], [0], []
    enqueue, enqueue_record = half.enqueue, half.enqueue_record

    def logged_enqueue(data):
        accepted = enqueue(data)
        writes.append((sim.now, half.bytes_enqueued))
        return accepted

    def logged_enqueue_record(size, record):
        if record is None:
            partial[0] += 1
        accepted = enqueue_record(size, record)
        writes.append((sim.now, half.bytes_enqueued))
        return accepted

    half.enqueue, half.enqueue_record = logged_enqueue, logged_enqueue_record
    for link in (half._data_link, half._ack_link):

        def logged_transmit(size, deliver, *args, transmit=link.transmit):
            packets.append((sim.now, size, deliver.__name__, args[0]))
            return transmit(size, deliver, *args)

        link.transmit = logged_transmit

    def on_request(stream_id, headers, priority):
        if stream_id == 1:
            server.respond(stream_id, [(":status", "200")])
            server.send_body(stream_id, b"b" * 60_000, end_stream=True)
        else:
            server.respond(stream_id, _BIG_RESPONSE)
            server.send_body(stream_id, b"c" * 500, end_stream=True)

    responses = []
    server.on_request = on_request
    client.on_response = lambda stream_id, headers: responses.append((sim.now, stream_id, headers))
    client.request(REQUEST)
    client.request(REQUEST[:3] + [(":path", "/big")])
    sim.run()
    return writes, partial[0], packets, responses, tracer.events()


def test_a_block_the_send_buffer_takes_in_parts_lands_as_its_bytes_would():
    for transport, (records, as_bytes) in _CLASSES.items():
        record_writes, record_partial, record_packets, record_responses, record_trace = (
            _short_buffer_load(records, transport)
        )
        byte_writes, byte_partial, byte_packets, byte_responses, byte_trace = (
            _short_buffer_load(as_bytes, transport)
        )
        assert record_partial >= 1, transport  # the block did go in parts
        assert byte_partial == 0
        assert record_writes == byte_writes, transport
        assert record_packets == byte_packets, transport
        assert record_responses == byte_responses, transport
        assert [headers for _, _, headers in record_responses][1] == _BIG_RESPONSE
        assert record_trace == byte_trace, transport


# ---------------------------------------------------------------------------
# no decode between our own endpoints
# ---------------------------------------------------------------------------


def test_a_page_load_between_our_own_endpoints_decodes_no_header_block(monkeypatch):
    """A pushing page load calls ``HpackDecoder.decode`` and
    ``huffman_decode`` for no block and receives no header frame as
    bytes, over either transport, loss-free and on a lossy link whose
    recovery resends packets."""
    from repro.html import ResourceSpec, ResourceType, WebsiteSpec
    from repro.netsim import quic, tcp
    from repro.replay import replay_site
    from repro.strategies.simple import PushAllStrategy

    spec = WebsiteSpec(
        name="few-images",
        primary_domain="images.example",
        html_size=3_000,
        html_visual_weight=10,
        resources=[ResourceSpec(f"i{index}.jpg", ResourceType.IMAGE, 900) for index in range(6)],
    )
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def spy(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, spy)

    counting(HpackDecoder, "decode")
    counting(hpack_decoder, "huffman_decode")
    counting(H2Connection, "_handle_header_frame")
    counting(tcp._HalfConnection, "_retransmit")
    counting(quic._QuicHalf, "_retransmit")
    for conditions in (DSL_TESTBED, LOSSY_DSL):
        for transport in ("tcp", "quic"):
            calls.clear()
            result = replay_site(
                spec,
                strategy=PushAllStrategy(),
                conditions=replace(conditions, transport=transport),
            )
            assert result.timeline.onload is not None
            assert result.pushed_bytes >= 6 * 900
            resent = calls.count("_retransmit")
            assert (resent > 0) == (conditions is LOSSY_DSL), transport
            assert len(calls) == resent, (transport, calls)
