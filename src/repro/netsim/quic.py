"""A QUIC-flavored multiplexed transport.

The model captures the two transport-level differences that motivated
QUIC as a successor to H2-over-TCP, while deliberately sharing every
other mechanism with :mod:`repro.netsim.tcp` so that experiment
contrasts isolate exactly those differences:

* **No cross-stream head-of-line blocking.**  Data is carried in
  per-stream frames with per-stream offsets; a receiver delivers each
  stream's bytes as soon as they are contiguous *within that stream*.
  A packet lost on stream 5 stalls only stream 5 — TCP's single
  sequence space would stall every multiplexed stream behind the hole.
* **Packet-number loss recovery** (RFC 9002-style).  Every
  transmission — including a retransmission — gets a fresh packet
  number, so RTT samples are never ambiguous (Karn's rule is
  unnecessary by construction).  Loss is detected by packet threshold
  (a packet is lost once three higher-numbered packets are
  acknowledged, mirroring TCP's three duplicate ACKs) and by a
  per-packet timer with exponential backoff (the PTO, mirroring the
  RTO path).  Lost frames are retransmitted in fresh packets.

Everything else is shared with the TCP model on purpose: the pluggable
congestion controllers (``repro.netsim.congestion``), the RFC 6298
smoothed RTT estimator, delayed ACKs (every 2nd packet / 5 ms), the
16 KiB bounded send buffer that backpressures the HTTP/2 scheduler,
sender-side Bernoulli loss, and the shared-link impairment pipeline
(loss/jitter/reorder/fading apply to QUIC packets exactly as they do
to TCP segments).  Per-packet wire overhead is charged at the TCP
figure so bandwidth-bound comparisons are apples to apples.

Payloads travel by reference, as in the TCP model: every write is a
:class:`~repro.span.Span`, a packet carries the sub-span it covers, and
packetization, retransmission and per-stream reassembly are arithmetic
on offsets.  The control stream's spans are read back into ``bytes``
on delivery; resource streams hand their spans to the application.
An ACK names a prefix of the receiver's arrival order (DESIGN §8).

Handshake accounting (1-RTT, or 0-RTT resumption) lives in
:mod:`repro.netsim.handshake`; the topology applies it before the
connection object exists, exactly as for TCP.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Union

from ..errors import NetworkError
from ..sim import CANCELLED, Simulator
from ..span import Span
from .conditions import NetworkConditions
from .congestion import make_congestion_control
from .link import SharedLink
from .tcp import (
    ACK_SIZE,
    DEFAULT_SEND_BUFFER,
    DELAYED_ACK_SEGMENTS,
    DELAYED_ACK_TIMEOUT_MS,
    HEADER_OVERHEAD,
)

#: Packets whose number trails the largest acknowledged by this many
#: are declared lost (RFC 9002 §6.1.1 packet threshold; the analogue
#: of TCP's three duplicate ACKs).
PACKET_THRESHOLD = 3

#: The control stream: HTTP/2 framing (preface, SETTINGS, HEADERS,
#: PUSH_PROMISE, WINDOW_UPDATE...) rides it as an ordered byte stream.
CONTROL_STREAM = 0


class QuicEndpoint:
    """One side of an established QUIC connection.

    Mirrors :class:`~repro.netsim.tcp.TcpEndpoint` — ``send`` writes
    the ordered control stream (stream 0) and ``on_data`` receives it,
    so byte-stream consumers work unchanged — and adds the stream
    plane: ``send_stream`` writes one resource stream (``bytes`` or a
    :class:`~repro.span.Span`) and ``on_stream_data`` receives
    per-stream payloads, as spans, the moment they are contiguous
    within their stream.
    """

    def __init__(self, half_out: "_QuicHalf", half_in: "_QuicHalf", name: str):
        self._out = half_out
        self._in = half_in
        self.name = name
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_stream_data: Optional[Callable[[int, Span, bool], None]] = None
        self.on_writable: Optional[Callable[[], None]] = None
        #: Never called: bodies arrive per stream.  The HTTP/2 layer
        #: wires it on either transport.
        self.on_record: Optional[Callable[[object], None]] = None
        half_out.endpoint = self
        half_in.receiver_endpoint = self

    def release(self) -> None:
        """As :meth:`repro.netsim.tcp.TcpEndpoint.release`."""
        self.on_data = self.on_stream_data = self.on_writable = self.on_record = None
        self._out.endpoint = None
        self._in.receiver_endpoint = None

    def send(self, data: bytes) -> int:
        """Buffer control-stream bytes; returns the count accepted."""
        return self._out.enqueue(data)

    def send_stream(self, stream_id: int, data: Union[bytes, Span], fin: bool = False) -> int:
        """Buffer bytes for one resource stream (``fin`` closes it)."""
        return self._out.enqueue_stream(stream_id, data, fin)

    @property
    def send_buffer_space(self) -> int:
        out = self._out
        space = out._max_buffer - out._buffered
        return space if space > 0 else 0

    @property
    def bytes_sent(self) -> int:
        return self._out.bytes_enqueued

    @property
    def bytes_received(self) -> int:
        return self._in.bytes_delivered

    @property
    def congestion_window(self) -> float:
        return self._out._cc.cwnd

    @property
    def unsent_buffered(self) -> int:
        return self._out._buffered

    @property
    def in_flight_bytes(self) -> int:
        return self._out._flight_bytes

    @property
    def all_sent_delivered(self) -> bool:
        return self._out.fully_acked


class _QuicHalf:
    """Sender + receiver state for one direction of a connection."""

    def __init__(
        self,
        sim: Simulator,
        data_link: SharedLink,
        ack_link: SharedLink,
        conditions: NetworkConditions,
        rng: random.Random,
        name: str,
        tracer=None,
    ):
        self._sim = sim
        self._data_link = data_link
        self._ack_link = ack_link
        self._conditions = conditions
        self._rng = rng
        self.name = name
        self._tracer = tracer
        self.endpoint: Optional[QuicEndpoint] = None
        self.receiver_endpoint: Optional[QuicEndpoint] = None

        # --- sender state ---
        #: FIFO of pending stream writes: [stream_id, span, fin].
        #: FIFO across streams keeps the HTTP/2 scheduler in charge of
        #: interleaving, exactly as it is over TCP's single stream.
        self._buffer: Deque[list] = deque()
        self._buffered = 0
        self._max_buffer = DEFAULT_SEND_BUFFER
        self._mss = conditions.mss
        self._cc = make_congestion_control(conditions.congestion_control, conditions.mss)
        self._next_pn = 0
        self._largest_acked = -1
        #: How much of the receiver's arrival order earlier ACKs covered.
        self._acked_count = 0
        #: Per-stream next send offset.
        self._send_offsets: Dict[int, int] = {}
        #: pn -> [stream_id, offset, span, fin, PTO queue entry, sent_at,
        #: size]; every transmission takes a fresh number, so this is in
        #: pn order.
        self._in_flight: Dict[int, list] = {}
        self._flight_bytes = 0
        self._rto_lane = sim.timer_lane()
        self.bytes_enqueued = 0
        # RFC 6298 estimator, the TCP model's arithmetic (run inline in
        # ``_on_ack_arrival``); with unique packet numbers every ACKed
        # packet is a valid sample.
        self._srtt: float = 0.0
        self._rttvar: float = 0.0
        self._rto = 1_000.0

        # --- receiver state ---
        #: Packet numbers received, and the same in arrival order: an ACK
        #: acknowledges a prefix of that order (both sides live here).
        self._received: set = set()
        self._rcv_order: List[int] = []
        self._rcv_largest = -1
        #: stream_id -> [next_offset, {offset: (span, fin)}].
        self._streams: Dict[int, list] = {}
        self.bytes_delivered = 0
        self._packets_since_ack = 0
        self._ack_lane = sim.timer_lane()
        #: The pending delayed-ACK timer's queue entry; None = not armed.
        self._ack_timer: Optional[list] = None

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    @property
    def buffer_space(self) -> int:
        space = self._max_buffer - self._buffered
        return space if space > 0 else 0

    @property
    def fully_acked(self) -> bool:
        return self._buffered == 0 and not self._in_flight

    def enqueue(self, data: bytes) -> int:
        """Write control-stream bytes (partial accept on a full buffer)."""
        return self.enqueue_stream(CONTROL_STREAM, data, False)

    def enqueue_stream(self, stream_id: int, data: Union[bytes, Span], fin: bool) -> int:
        span = Span(data) if data.__class__ is not Span else data
        size = span.stop - span.start
        space = self._max_buffer - self._buffered
        accepted = size if size < space else (space if space > 0 else 0)
        if accepted > 0 or (fin and accepted == size):
            # A fin with no remaining payload still needs a record: an
            # empty frame carries the stream-closing flag on the wire.
            if accepted < size:
                span = Span(span.source, span.start, span.start + accepted)
            self._buffer.append([stream_id, span, fin and accepted == size])
            self._buffered += accepted
            self.bytes_enqueued += accepted
            # As over TCP, most writes come from ``on_writable`` with the
            # window already full, and the ACK that opens it pumps.  A
            # bare fin is sent whatever the window, so it always pumps.
            if accepted == 0 or self._flight_bytes < self._cc.cwnd:
                self._pump()
        return accepted

    def _pump(self) -> None:
        """Packetize pending stream writes while the window allows.

        Each packet is cut and sent here, in one pass: nothing below
        re-enters this half (arming a timer and queueing on the link
        only schedule), so the sender state lives in locals for the
        burst and is written back once."""
        buffer = self._buffer
        if not buffer:
            return
        cwnd = self._cc.cwnd
        mss = self._mss
        flight_bytes = self._flight_bytes
        buffered = self._buffered
        next_pn = self._next_pn
        send_offsets = self._send_offsets
        in_flight = self._in_flight
        now = self._sim.now
        rto = self._rto
        arm = self._rto_lane.schedule
        on_timeout = self._on_timeout
        loss_rate = self._conditions.loss_rate
        link_transmit = self._data_link.transmit
        on_arrival = self._on_packet_arrival
        while buffer:
            head = buffer[0]
            span = head[1]
            size = span.stop - span.start
            if size > 0 and flight_bytes >= cwnd:
                break
            if size > mss:
                cut = span.start + mss
                head[1] = Span(span.source, cut, span.stop)
                span = Span(span.source, span.start, cut)
                size = mss
                fin = False  # the fin travels with the remainder
            else:
                buffer.popleft()
                fin = head[2]
            stream_id = head[0]
            offset = send_offsets.get(stream_id, 0)
            send_offsets[stream_id] = offset + size
            buffered -= size
            pn = next_pn
            next_pn = pn + 1
            in_flight[pn] = [stream_id, offset, span, fin, arm(rto, on_timeout, pn), now, size]
            flight_bytes += size
            if loss_rate > 0 and self._rng.random() < loss_rate:
                # Lost on the wire; the PTO (or packet-threshold detection
                # triggered by later packets) recovers the frame.
                continue
            link_transmit(
                size + HEADER_OVERHEAD, on_arrival, pn, (stream_id, offset, span, fin)
            )
        self._flight_bytes = flight_bytes
        self._buffered = buffered
        self._next_pn = next_pn

    def _retransmit(self, entry: list, kind: str, lost_pn: int) -> None:
        """Re-send one lost frame in a fresh packet (new packet number);
        first sends are ``_pump``'s."""
        stream_id, offset, span, fin, _timer, _sent_at, size = entry
        if self._tracer is not None:
            self._tracer.retransmit(self.name, lost_pn, kind)
        pn = self._next_pn
        self._next_pn = pn + 1
        timer = self._rto_lane.schedule(self._rto, self._on_timeout, pn)
        self._in_flight[pn] = [stream_id, offset, span, fin, timer, self._sim.now, size]
        self._flight_bytes += size
        loss_rate = self._conditions.loss_rate
        if loss_rate > 0 and self._rng.random() < loss_rate:
            return  # lost on the wire again; its PTO recovers it
        self._data_link.transmit(
            size + HEADER_OVERHEAD, self._on_packet_arrival, pn, (stream_id, offset, span, fin)
        )

    def _on_timeout(self, pn: int) -> None:
        entry = self._in_flight.pop(pn, None)
        if entry is None:
            return
        self._flight_bytes -= entry[6]
        self._cc.on_timeout(self._sim.now)
        self._rto = min(self._rto * 2.0, 60_000.0)  # exponential backoff
        if self._tracer is not None:
            self._cc.trace_sample(
                self._tracer, self.name, "timeout", self._rto, self._flight_bytes
            )
        self._retransmit(entry, "rto", pn)

    def _on_ack_arrival(self, count: int, largest: int) -> None:
        """Process one ACK at the sender: the receiver had ``count``
        packets when it sent it, ``largest`` the highest number among
        them.  Costs the packets it newly acknowledges, not the history."""
        in_flight = self._in_flight
        if largest > self._largest_acked:
            self._largest_acked = largest
        newly_acked = 0
        now = self._sim.now
        if count > self._acked_count:
            fresh = self._rcv_order[self._acked_count : count]
            self._acked_count = count
            fresh.sort()
            # Unique packet numbers make every acknowledged packet a
            # valid sample.  RFC 6298 runs on locals, in packet-number
            # order, and the RTO, a function of the final (srtt,
            # rttvar) alone, is derived once: nothing reads it between
            # samples, and the retransmits below see the final value.
            srtt = self._srtt
            rttvar = self._rttvar
            sampled = False
            for pn in fresh:
                entry = in_flight.pop(pn, None)
                if entry is None:
                    continue  # its PTO fired first; the frame went out again
                sampled = True
                entry[4][CANCELLED] = True
                newly_acked += entry[6]
                rtt = now - entry[5]
                if srtt == 0.0:
                    srtt = rtt
                    rttvar = rtt / 2.0
                else:
                    deviation = srtt - rtt
                    if deviation < 0.0:
                        deviation = -deviation
                    rttvar = 0.75 * rttvar + 0.25 * deviation
                    srtt = 0.875 * srtt + 0.125 * rtt
            self._flight_bytes -= newly_acked
            if sampled:
                self._srtt = srtt
                self._rttvar = rttvar
                margin = 4.0 * rttvar
                rto = srtt + (margin if margin > 10.0 else 10.0)
                self._rto = 200.0 if rto < 200.0 else (rto if rto < 60_000.0 else 60_000.0)
        # Packet-threshold loss detection (RFC 9002): anything still in
        # flight that the ACK skipped by >= PACKET_THRESHOLD is lost.
        lost_pns = []
        for pn in in_flight:
            if pn + PACKET_THRESHOLD > self._largest_acked:
                break
            lost_pns.append(pn)
        if newly_acked > 0:
            self._cc.on_ack(newly_acked, now)
        if lost_pns:
            # One congestion response per loss event (per ACK round),
            # mirroring TCP fast retransmit, not one per packet.
            self._cc.on_fast_retransmit(now)
            if self._tracer is not None:
                self._cc.trace_sample(
                    self._tracer, self.name, "fast_retransmit", self._rto, self._flight_bytes
                )
            for pn in lost_pns:
                entry = in_flight.pop(pn)
                entry[4][CANCELLED] = True
                self._flight_bytes -= entry[6]
                self._retransmit(entry, "fast", pn)
        elif newly_acked > 0 and self._tracer is not None:
            self._cc.trace_sample(
                self._tracer, self.name, "ack", self._rto, self._flight_bytes
            )
        self._pump()
        if self._buffered < self._max_buffer:
            if self.endpoint is not None and self.endpoint.on_writable is not None:
                self.endpoint.on_writable()

    # ------------------------------------------------------------------
    # receiver side (runs at the *other* host; links already added delay)
    # ------------------------------------------------------------------
    def _on_packet_arrival(self, pn: int, frame: tuple) -> None:
        received = self._received
        duplicate = pn in received
        if not duplicate:
            received.add(pn)
            self._rcv_order.append(pn)
            if pn > self._rcv_largest:
                self._rcv_largest = pn
            stream_id, offset, span, fin = frame
            state = self._streams.get(stream_id)
            if state is None:
                state = self._streams[stream_id] = [0, {}]
            if state[0] == offset and not state[1]:
                # In order on a stream with nothing parked, the common
                # case: ``_deliver_frame`` + ``_deliver``, inline.
                size = span.stop - span.start
                state[0] = offset + size
                self.bytes_delivered += size
                receiver = self.receiver_endpoint
                if receiver is not None:
                    if stream_id == CONTROL_STREAM:
                        if size and receiver.on_data is not None:
                            receiver.on_data(span.tobytes())
                    elif receiver.on_stream_data is not None:
                        receiver.on_stream_data(stream_id, span, fin)
            else:
                self._deliver_frame(frame)
        if duplicate or len(received) <= self._rcv_largest:
            # A hole in the packet-number space (or a spurious
            # duplicate): ACK immediately so loss detection at the
            # sender sees the skip without waiting out the ACK delay —
            # the analogue of TCP's immediate duplicate ACK.
            self._send_ack_now()
            return
        self._packets_since_ack += 1
        if self._packets_since_ack >= DELAYED_ACK_SEGMENTS:
            # ``_send_ack_now``, inline: every second packet ends here.
            timer = self._ack_timer
            if timer is not None:
                timer[CANCELLED] = True
                self._ack_timer = None
            self._packets_since_ack = 0
            self._ack_link.transmit(
                ACK_SIZE, self._on_ack_arrival, len(self._rcv_order), self._rcv_largest
            )
        elif self._ack_timer is None:
            self._ack_timer = self._ack_lane.schedule(
                DELAYED_ACK_TIMEOUT_MS, self._send_ack_now
            )

    def _deliver_frame(self, frame: tuple) -> None:
        stream_id, offset, span, fin = frame
        state = self._streams.get(stream_id)
        if state is None:
            state = [0, {}]
            self._streams[stream_id] = state
        next_offset, pending = state
        if offset > next_offset:
            # A hole earlier in *this* stream; buffer until it fills.
            # Other streams keep delivering — the HoL-blocking contrast
            # with TCP's single sequence space.
            pending[offset] = (span, fin)
            return
        if offset < next_offset or (offset in pending):
            return  # spuriously retransmitted frame, already have it
        self._deliver(stream_id, span, fin)
        next_offset = offset + span.stop - span.start
        recovered = 0
        while next_offset in pending:
            span, fin = pending.pop(next_offset)
            self._deliver(stream_id, span, fin)
            recovered += span.stop - span.start
            next_offset += span.stop - span.start
        state[0] = next_offset
        if recovered > 0 and self._tracer is not None:
            # This frame filled a gap that had later bytes parked
            # behind it: a stream-level loss recovery.
            self._tracer.quic_stream_recovered(self.name, stream_id, recovered)

    def _deliver(self, stream_id: int, span: Span, fin: bool) -> None:
        size = span.stop - span.start
        self.bytes_delivered += size
        receiver = self.receiver_endpoint
        if receiver is None:
            return
        if stream_id == CONTROL_STREAM:
            if size and receiver.on_data is not None:
                receiver.on_data(span.tobytes())
        elif receiver.on_stream_data is not None:
            receiver.on_stream_data(stream_id, span, fin)

    def _send_ack_now(self) -> None:
        timer = self._ack_timer
        if timer is not None:
            timer[CANCELLED] = True  # a no-op when this is the timer firing
            self._ack_timer = None
        self._packets_since_ack = 0
        self._ack_link.transmit(
            ACK_SIZE, self._on_ack_arrival, len(self._rcv_order), self._rcv_largest
        )


class QuicConnection:
    """A full-duplex QUIC connection between a client and a server.

    Mirrors :class:`~repro.netsim.tcp.TcpConnection`: both directions
    share the topology's access links, with ACKs riding the reverse
    link.  The ``transport`` attribute lets protocol layers pick the
    matching framing adapter.
    """

    transport = "quic"

    def __init__(
        self,
        sim: Simulator,
        downlink: SharedLink,
        uplink: SharedLink,
        conditions: NetworkConditions,
        rng: Optional[random.Random] = None,
        name: str = "quic",
        tracer=None,
    ):
        rng = rng or random.Random(0)
        self.name = name
        self._c2s = _QuicHalf(
            sim, uplink, downlink, conditions, rng, f"{name}:c2s", tracer=tracer
        )
        self._s2c = _QuicHalf(
            sim, downlink, uplink, conditions, rng, f"{name}:s2c", tracer=tracer
        )
        self.client = QuicEndpoint(self._c2s, self._s2c, f"{name}:client")
        self.server = QuicEndpoint(self._s2c, self._c2s, f"{name}:server")

    def set_send_buffer(self, size: int) -> None:
        """Set the send-buffer size for both directions."""
        mss = self._c2s._mss
        if size < mss:
            raise NetworkError(f"send buffer must hold at least one MSS ({mss})")
        self._c2s._max_buffer = size
        self._s2c._max_buffer = size
