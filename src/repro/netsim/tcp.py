"""A byte-stream TCP model that moves lengths, not bytes.

The model captures the TCP dynamics the paper's findings depend on:

* **IW10 slow start** — a large base document needs multiple round
  trips (the mechanism behind sites s8 and w1 in the paper);
* **ack clocking over an asymmetric link** — ACKs consume the 1 Mbit/s
  uplink;
* **a bounded send buffer with backpressure** — the HTTP/2 server can
  only decide *what to send next* when socket space frees, which is
  what makes stream (re)scheduling and Interleaving Push meaningful;
* **loss recovery** — adaptive RTO with exponential backoff (RFC 6298)
  and fast retransmit on three duplicate ACKs (RFC 5681), exercised by
  the Fig. 2a "Internet" profile and by the link-level impairment
  pipeline (``repro.netsim.impairment``);
* **pluggable congestion control** — the send window is driven by a
  policy object (``repro.netsim.congestion``: Reno or CUBIC) selected
  via ``NetworkConditions.congestion_control``.

The receiver tolerates whatever an impaired link produces: duplicated
segments are re-ACKed, reordered segments are buffered until the hole
fills, and stale/duplicate cumulative ACKs on the return path are
classified explicitly (see ``_on_ack``).

It is deliberately not a full TCP: no SACK, no Nagle, no window
scaling negotiation.  The replay testbed runs loss-free, where this
model is exact up to those omissions.

**What is on the wire.**  A segment is ``(seq, length)``.  What was
written stays in one ordered *write log* owned by the half-connection,
which holds both ends of its direction: segmentation, loss,
retransmission, reordering and reassembly are integer arithmetic on
sequence numbers, and the receiver reads the log as its in-order point
advances.  Impairments act on whole packets, never inside one, so this
is exact: the receiver sees the same bytes at the same instants as if
every segment had carried its slice of the stream.  A write is either
``bytes`` (delivered as they arrive, segment by segment) or a *record*:
an opaque object occupying ``size`` bytes of the stream, handed over
once its last byte is in order — how HTTP/2 sends a DATA frame whose
payload is a :class:`repro.span.Span` of a recorded body.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..errors import NetworkError
from ..sim import CANCELLED, Simulator
from .conditions import NetworkConditions
from .congestion import make_congestion_control
from .link import SharedLink

#: Maximum segment size (Ethernet MTU minus IP/TCP headers).
MSS = 1460

#: Per-segment header overhead charged on the wire (IP + TCP).
HEADER_OVERHEAD = 40

#: Size charged for a pure ACK segment.
ACK_SIZE = 40

#: Initial congestion window, in segments (RFC 6928).
INITIAL_WINDOW_SEGMENTS = 10

#: Default socket send-buffer size; the backpressure horizon.
DEFAULT_SEND_BUFFER = 16 * 1024

#: Delayed-ACK: acknowledge every Nth segment or after the timer fires.
DELAYED_ACK_SEGMENTS = 2
DELAYED_ACK_TIMEOUT_MS = 5.0


class TcpEndpoint:
    """One side of an established TCP connection.

    Attributes:
        on_data: callback invoked with in-order received bytes.
        on_record: callback invoked with each received record.
        on_writable: callback invoked when send-buffer space frees after
            having been full.  Consumers should write until ``send``
            accepts less than offered.
    """

    def __init__(self, half_out: "_HalfConnection", half_in: "_HalfConnection", name: str):
        self._out = half_out
        self._in = half_in
        self.name = name
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_record: Optional[Callable[[object], None]] = None
        self.on_writable: Optional[Callable[[], None]] = None
        half_out.endpoint = self
        half_in.receiver_endpoint = self

    def release(self) -> None:
        """Drop the application's callbacks and this side's links to
        the half-connections, which point back here; the byte counters
        of the halves stay readable through their own references."""
        self.on_data = self.on_record = self.on_writable = None
        self._out.endpoint = None
        self._in.receiver_endpoint = None

    def send(self, data: bytes) -> int:
        """Buffer up to ``len(data)`` bytes for transmission.

        Returns the number of bytes accepted (may be less than offered
        when the send buffer is full — the caller must wait for
        ``on_writable``).
        """
        return self._out.enqueue(data)

    def send_record(self, size: int, record: object) -> bool:
        """Buffer ``record`` as one atomic write of ``size`` wire bytes.

        All or nothing: returns False (wait for ``on_writable``) unless
        the whole record fits the send buffer.  The peer's ``on_record``
        receives the object once all ``size`` bytes are in order.
        """
        return self._out.enqueue_record(size, record)

    @property
    def send_buffer_space(self) -> int:
        """Bytes that a call to :meth:`send` would currently accept."""
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
        """Current congestion window of the outgoing direction, bytes."""
        return self._out._cc.cwnd

    @property
    def unsent_buffered(self) -> int:
        """Bytes accepted by :meth:`send` but not yet put on the wire.

        The application-visible backlog: HTTP/2 pacing keeps this small
        relative to the congestion window so scheduling decisions stay
        responsive when loss collapses the window.
        """
        return self._out._buffered

    @property
    def in_flight_bytes(self) -> int:
        """Bytes transmitted but not yet cumulatively acknowledged."""
        return self._out._flight_size()

    @property
    def all_sent_delivered(self) -> bool:
        """True when every byte ever accepted has been ACKed."""
        return self._out.fully_acked


class _HalfConnection:
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
        #: Optional event tracer; read-only observer of cwnd/RTO/loss
        #: recovery decisions (``None`` costs one check per cc event).
        self._tracer = tracer
        self.endpoint: Optional[TcpEndpoint] = None
        self.receiver_endpoint: Optional[TcpEndpoint] = None

        # --- sender state ---
        #: Bytes accepted by ``enqueue`` and not yet segmented.
        self._buffered = 0
        self._max_buffer = DEFAULT_SEND_BUFFER
        self._next_seq = 0            # next byte sequence to assign
        self._snd_una = 0             # lowest unacknowledged byte
        self._mss = conditions.mss
        # Congestion control policy (Reno reproduces the historical
        # inline window arithmetic bit for bit; see netsim.congestion).
        self._cc = make_congestion_control(conditions.congestion_control, conditions.mss)
        #: seq -> (rto queue entry, send time, was retransmitted, end seq).
        self._in_flight: Dict[int, Tuple[list, float, bool, int]] = {}
        #: While no retransmission has occurred, ``_in_flight`` insertion
        #: order equals sequence order, so the per-ACK scan can stop at
        #: the first unacked entry instead of filtering the whole dict.
        #: Any retransmission re-inserts out of order and permanently
        #: drops back to the exhaustive (historical) scan.
        self._ordered = True
        #: Dedicated timer lanes: RTO deadlines (now + rto) and delayed
        #: ACK deadlines (now + 5ms) are each near-monotone within their
        #: class, so arming is an append and cancelling a slot write.
        self._rto_lane = sim.timer_lane()
        self.bytes_enqueued = 0
        # RFC 6298 adaptive retransmission timeout.  A fixed RTO melts
        # down when many connections share the uplink: ACK queueing
        # inflates the RTT past the timer and every segment is spuriously
        # retransmitted.
        self._srtt: float = 0.0
        self._rttvar: float = 0.0
        self._rto = 1_000.0  # conservative until the first RTT sample
        # Fast retransmit (RFC 5681): three duplicate ACKs signal a
        # hole; recover without waiting out the RTO.
        self._dup_acks = 0

        # --- the stream itself ---
        #: Ordered write log, ``(end offset, payload)`` per write: appended
        #: by the sender, consumed by the receiver as ``_rcv_next`` passes.
        self._log: Deque[Tuple[int, object]] = deque()

        # --- receiver state ---
        self._rcv_next = 0
        #: Out-of-order segments waiting for the hole to fill: seq -> length.
        self._reorder: Dict[int, int] = {}
        self.bytes_delivered = 0
        self._segments_since_ack = 0
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
        size = len(data)
        space = self._max_buffer - self._buffered
        accepted = size if size < space else (space if space > 0 else 0)
        if accepted > 0:
            if accepted < size:
                data = data[:accepted]
            if data.__class__ is not bytes:
                data = bytes(data)  # anything else in the log is a record
            self.bytes_enqueued += accepted
            self._log.append((self.bytes_enqueued, data))
            self._buffered += accepted
            self._pump()
        return accepted

    def enqueue_record(self, size: int, record: object) -> bool:
        if size <= 0:
            raise NetworkError("a record occupies at least one byte of the stream")
        if size > self._max_buffer - self._buffered:
            return False
        self.bytes_enqueued += size
        self._log.append((self.bytes_enqueued, record))
        self._buffered += size
        # Most records are written from ``on_writable`` with the window
        # already full; the ACK that opens it pumps.
        if self._next_seq - self._snd_una < self._cc.cwnd:
            self._pump()
        return True

    def _flight_size(self) -> int:
        return self._next_seq - self._snd_una

    def _pump(self) -> None:
        """Transmit segments while the congestion window allows."""
        buffered = self._buffered
        next_seq = self._next_seq
        snd_una = self._snd_una
        cwnd = self._cc.cwnd
        if buffered <= 0 or next_seq - snd_una >= cwnd:
            return
        # Nothing below re-enters this half-connection (arming a timer
        # and queueing on the link only schedule), so the sender state
        # lives in locals for the burst and is written back once.  The
        # callbacks are bound per burst, not kept on ``self``: a bound
        # method stored on its own instance is a reference cycle, and a
        # finished load's world would wait for the cyclic collector.
        mss = self._mss
        now = self._sim.now
        rto = self._rto
        arm = self._rto_lane.schedule
        on_timeout = self._on_timeout
        in_flight = self._in_flight
        link_transmit = self._data_link.transmit
        on_arrival = self._on_segment_arrival
        loss_rate = self._conditions.loss_rate
        while buffered > 0 and next_seq - snd_una < cwnd:
            length = mss if mss < buffered else buffered
            buffered -= length
            seq = next_seq
            next_seq = seq + length
            in_flight[seq] = (arm(rto, on_timeout, seq), now, False, next_seq)
            if loss_rate > 0 and self._rng.random() < loss_rate:
                # The segment is lost on the wire; the RTO timer recovers it.
                continue
            link_transmit(length + HEADER_OVERHEAD, on_arrival, seq, length)
        self._buffered = buffered
        self._next_seq = next_seq

    def _retransmit(self, seq: int, length: int) -> None:
        """Send ``[seq, seq + length)`` again (first sends are ``_pump``'s)."""
        timer = self._rto_lane.schedule(self._rto, self._on_timeout, seq)
        self._in_flight[seq] = (timer, self._sim.now, True, seq + length)
        self._ordered = False
        loss_rate = self._conditions.loss_rate
        if loss_rate > 0 and self._rng.random() < loss_rate:
            return  # lost on the wire again; its new RTO timer recovers it
        self._data_link.transmit(
            length + HEADER_OVERHEAD, self._on_segment_arrival, seq, length
        )

    def _sample_rtt(self, rtt: float) -> None:
        """RFC 6298 smoothed RTT / RTO update (Karn's rule applied by
        the caller: retransmitted segments are never sampled)."""
        srtt = self._srtt
        if srtt == 0.0:
            srtt = rtt
            rttvar = rtt / 2.0
        else:
            deviation = srtt - rtt
            if deviation < 0.0:
                deviation = -deviation
            rttvar = 0.75 * self._rttvar + 0.25 * deviation
            srtt = 0.875 * srtt + 0.125 * rtt
        self._srtt = srtt
        self._rttvar = rttvar
        # min(max(srtt + max(4 * rttvar, 10), 200), 60 000), spelled as
        # comparisons: this runs once per acknowledged segment.
        margin = 4.0 * rttvar
        rto = srtt + (margin if margin > 10.0 else 10.0)
        self._rto = 200.0 if rto < 200.0 else (rto if rto < 60_000.0 else 60_000.0)

    def _fast_retransmit(self) -> None:
        """Resend the segment at the left edge; shrink the window."""
        entry = self._in_flight.pop(self._snd_una, None)
        if entry is None:
            # The hole was already repaired (an RTO fired first, or its
            # ACK is still in flight on a reordered return path).
            return
        timer, _sent_at, _retx, end = entry
        timer[CANCELLED] = True
        self._cc.on_fast_retransmit(self._sim.now)
        if self._tracer is not None:
            self._tracer.retransmit(self.name, self._snd_una, "fast")
            self._cc.trace_sample(
                self._tracer, self.name, "fast_retransmit", self._rto, self._flight_size()
            )
        self._retransmit(self._snd_una, end - self._snd_una)

    def _on_timeout(self, seq: int) -> None:
        if seq not in self._in_flight:
            return
        _old_timer, _sent_at, _retx, end = self._in_flight.pop(seq)
        self._cc.on_timeout(self._sim.now)
        self._rto = min(self._rto * 2.0, 60_000.0)  # exponential backoff
        if self._tracer is not None:
            self._tracer.retransmit(self.name, seq, "rto")
            self._cc.trace_sample(
                self._tracer, self.name, "timeout", self._rto, self._flight_size()
            )
        self._retransmit(seq, end - seq)

    def _on_ack(self, ack: int) -> None:
        if ack < self._snd_una:
            # Stale: a cumulative ACK overtaken on the return path (ACK
            # reordering) or a late duplicate of one already processed.
            # Cumulative semantics make it carry no information — drop
            # it without touching the duplicate counter.
            return
        if ack == self._snd_una:
            # Duplicate cumulative ACK.  Only meaningful while data is
            # outstanding (RFC 5681: "an ACK that does not advance the
            # window while new data is in flight"); three in a row mark
            # the left-edge segment as lost.
            if self._in_flight:
                self._dup_acks += 1
                if self._dup_acks == 3:
                    self._fast_retransmit()
            return
        self._dup_acks = 0
        newly_acked = ack - self._snd_una
        self._snd_una = ack
        in_flight = self._in_flight
        now = self._sim.now
        if self._ordered:
            # Loss-free steady state: insertion order == seq order, so
            # the acked entries are a prefix — stop at the first entry
            # past the ACK instead of filtering the whole flight.  No
            # retransmission has happened, so every entry is a valid
            # sample (Karn); the RFC 6298 update of ``_sample_rtt`` runs
            # here on locals, and the RTO, a function of the final
            # (srtt, rttvar) alone, is derived once after the loop.
            srtt = self._srtt
            rttvar = self._rttvar
            acked_seqs = []
            for seq, entry in in_flight.items():
                if entry[3] > ack:
                    break
                acked_seqs.append(seq)
                entry[0][CANCELLED] = True
                rtt = now - entry[1]
                if srtt == 0.0:
                    srtt = rtt
                    rttvar = rtt / 2.0
                else:
                    deviation = srtt - rtt
                    if deviation < 0.0:
                        deviation = -deviation
                    rttvar = 0.75 * rttvar + 0.25 * deviation
                    srtt = 0.875 * srtt + 0.125 * rtt
            if acked_seqs:
                for seq in acked_seqs:
                    del in_flight[seq]
                self._srtt = srtt
                self._rttvar = rttvar
                margin = 4.0 * rttvar
                rto = srtt + (margin if margin > 10.0 else 10.0)
                self._rto = 200.0 if rto < 200.0 else (rto if rto < 60_000.0 else 60_000.0)
        else:
            for seq in [s for s, entry in in_flight.items() if entry[3] <= ack]:
                timer, sent_at, retransmitted, _end = in_flight.pop(seq)
                timer[CANCELLED] = True
                if not retransmitted:
                    self._sample_rtt(now - sent_at)
        self._cc.on_ack(newly_acked, now)
        if self._tracer is not None:
            self._cc.trace_sample(
                self._tracer, self.name, "ack", self._rto, self._flight_size()
            )
        self._pump()
        # Level-triggered writability (like EPOLLOUT): whenever an ACK
        # frees buffer space, give the application a chance to write.
        if self._buffered < self._max_buffer:
            if self.endpoint is not None and self.endpoint.on_writable is not None:
                self.endpoint.on_writable()

    # ------------------------------------------------------------------
    # receiver side (runs at the *other* host; links already added delay)
    # ------------------------------------------------------------------
    def _on_segment_arrival(self, seq: int, length: int) -> None:
        old = self._rcv_next
        if seq == old:
            # In order.  Advance the in-order point over this segment and
            # hand the receiver what that brings — the newly in-order
            # part of ``bytes`` writes, and every record whose last byte
            # has now arrived (one ``on_data`` per run of bytes between
            # records, in stream order) — then again for each buffered
            # segment the advance reaches.
            receiver = self.receiver_endpoint
            log = self._log
            reorder = self._reorder
            while True:
                self._rcv_next = new = old + length
                self.bytes_delivered += length
                data = None
                while True:
                    end, payload = log[0]
                    if payload.__class__ is bytes:
                        first = end - len(payload)
                        piece = payload[old - first if old > first else 0 : new - first]
                        data = piece if data is None else data + piece
                    elif end <= new:
                        if data is not None:
                            if receiver.on_data is not None:
                                receiver.on_data(data)
                            data = None
                        if receiver.on_record is not None:
                            receiver.on_record(payload)
                    if end > new:
                        break
                    log.popleft()
                    if end == new:
                        break
                if data is not None and receiver.on_data is not None:
                    receiver.on_data(data)
                if new not in reorder:
                    break
                old = new
                length = reorder.pop(new)
        elif seq > old:
            self._reorder[seq] = length
            # RFC 5681: an out-of-order segment triggers an immediate
            # duplicate ACK so the sender can fast-retransmit.
            self._send_ack_now()
            return
        # else: duplicate of already-delivered data; just re-ACK.
        if self._segments_since_ack + 1 >= DELAYED_ACK_SEGMENTS:
            # ``_send_ack_now``, inline: every second segment ends here.
            timer = self._ack_timer
            if timer is not None:
                timer[CANCELLED] = True
                self._ack_timer = None
            self._segments_since_ack = 0
            self._ack_link.transmit(ACK_SIZE, self._on_ack, self._rcv_next)
        else:
            self._segments_since_ack += 1
            if self._ack_timer is None:
                self._ack_timer = self._ack_lane.schedule(
                    DELAYED_ACK_TIMEOUT_MS, self._send_ack_now
                )

    def _send_ack_now(self) -> None:
        timer = self._ack_timer
        if timer is not None:
            timer[CANCELLED] = True  # a no-op when this is the timer firing
            self._ack_timer = None
        self._segments_since_ack = 0
        self._ack_link.transmit(ACK_SIZE, self._on_ack, self._rcv_next)


class TcpConnection:
    """A full-duplex TCP connection between a client and a server.

    The two directions share the topology's access links: data from the
    server rides the downlink while its ACKs ride the uplink, and vice
    versa for requests.
    """

    transport = "tcp"

    def __init__(
        self,
        sim: Simulator,
        downlink: SharedLink,
        uplink: SharedLink,
        conditions: NetworkConditions,
        rng: Optional[random.Random] = None,
        name: str = "tcp",
        tracer=None,
    ):
        rng = rng or random.Random(0)
        self.name = name
        # client -> server direction: data on uplink, ACKs on downlink.
        self._c2s = _HalfConnection(
            sim, uplink, downlink, conditions, rng, f"{name}:c2s", tracer=tracer
        )
        # server -> client direction: data on downlink, ACKs on uplink.
        self._s2c = _HalfConnection(
            sim, downlink, uplink, conditions, rng, f"{name}:s2c", tracer=tracer
        )
        self.client = TcpEndpoint(self._c2s, self._s2c, f"{name}:client")
        self.server = TcpEndpoint(self._s2c, self._c2s, f"{name}:server")

    def set_send_buffer(self, size: int) -> None:
        """Set the socket send-buffer size for both directions."""
        mss = self._c2s._mss
        if size < mss:
            raise NetworkError(f"send buffer must hold at least one MSS ({mss})")
        self._c2s._max_buffer = size
        self._s2c._max_buffer = size
