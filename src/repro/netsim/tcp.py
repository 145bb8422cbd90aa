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
payload is a :class:`repro.span.Span` of a recorded body, and a header
block whose header list the receiver takes as it is.

What TCP shares with the QUIC model (endpoint, half-connection state,
RTO expiry, duplex wrapper) is :mod:`repro.netsim.transport`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..errors import NetworkError
from ..sim import CANCELLED
from ..trace.core import CwndSample, Retransmit
from .congestion import INITIAL_WINDOW_SEGMENTS  # noqa: F401 (IW10, re-exported)
from .transport import (
    ACK_SIZE,
    DELAYED_ACK_SEGMENTS,
    DELAYED_ACK_TIMEOUT_MS,
    HEADER_OVERHEAD,
    Duplex,
    Endpoint,
    Half,
)

#: Maximum segment size (Ethernet MTU minus IP/TCP headers).
MSS = 1460


class _HalfConnection(Half):
    """One direction of a TCP connection: byte sequence numbers,
    dup-ACK fast retransmit, records, and in-order reassembly."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # --- sender state ---
        self._next_seq = 0            # next byte sequence to assign
        self._snd_una = 0             # lowest unacknowledged byte
        #: First transmissions in flight, seq -> (rto queue entry, send
        #: time, end seq).  ``_pump`` inserts in sequence order and an
        #: entry only ever leaves, so the dict stays in sequence order
        #: for the life of the connection: an ACK's entries are a
        #: prefix, and all of them are valid RTT samples (Karn).
        self._in_flight: Dict[int, Tuple[list, float, int]] = {}
        #: Retransmitted segments in flight, seq -> (rto queue entry, end
        #: seq): never sampled, and kept apart so ``_in_flight`` stays
        #: in order.  A segment sits in at most one of the two.
        self._retransmitted: Dict[int, Tuple[list, int]] = {}
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

    # --- sender side ---
    @property
    def fully_acked(self) -> bool:
        return self._buffered == 0 and not self._in_flight and not self._retransmitted

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
            in_flight[seq] = (arm(rto, on_timeout, seq), now, next_seq)
            if loss_rate > 0 and self._rng.random() < loss_rate:
                # The segment is lost on the wire; the RTO timer recovers it.
                continue
            link_transmit(length + HEADER_OVERHEAD, on_arrival, seq, length)
        self._buffered = buffered
        self._next_seq = next_seq

    def _retransmit(self, seq: int, end: int, kind: str) -> None:
        """Send ``[seq, end)`` again, lost by ``kind`` (``"rto"`` or
        ``"fast"``); first sends are ``_pump``'s."""
        if self._tracer is not None:
            self._tracer.emit(Retransmit, self.name, seq, kind)
            trigger = "timeout" if kind == "rto" else "fast_retransmit"
            cc = self._cc
            self._tracer.emit(
                CwndSample, self.name, trigger, cc.cwnd, cc.ssthresh, self._rto,
                self._flight_size(),
            )
        timer = self._rto_lane.schedule(self._rto, self._on_timeout, seq)
        self._retransmitted[seq] = (timer, end)
        loss_rate = self._conditions.loss_rate
        if loss_rate > 0 and self._rng.random() < loss_rate:
            return  # lost on the wire again; its new RTO timer recovers it
        self._data_link.transmit(
            end - seq + HEADER_OVERHEAD, self._on_segment_arrival, seq, end - seq
        )

    def _take_in_flight(self, seq: int) -> Optional[int]:
        """Remove ``seq``'s flight entry, cancel its timer (a no-op when
        it is the timer firing) and return its end sequence; None when
        nothing for ``seq`` is in flight."""
        entry = self._in_flight.pop(seq, None)
        if entry is not None:
            entry[0][CANCELLED] = True
            return entry[2]
        entry = self._retransmitted.pop(seq, None)
        if entry is not None:
            entry[0][CANCELLED] = True
            return entry[1]
        return None

    def _fast_retransmit(self) -> None:
        """Resend the segment at the left edge; shrink the window."""
        end = self._take_in_flight(self._snd_una)
        if end is None:
            # The hole was already repaired (an RTO fired first, or its
            # ACK is still in flight on a reordered return path).
            return
        self._cc.on_fast_retransmit(self._sim.now)
        self._retransmit(self._snd_una, end, "fast")

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
            if self._in_flight or self._retransmitted:
                self._dup_acks += 1
                if self._dup_acks == 3:
                    self._fast_retransmit()
            return
        self._dup_acks = 0
        newly_acked = ack - self._snd_una
        self._snd_una = ack
        in_flight = self._in_flight
        now = self._sim.now
        # ``_in_flight`` is in sequence order and holds first
        # transmissions only, so the acked entries are a prefix — stop
        # at the first entry past the ACK — and each is a valid sample
        # (Karn).  The RFC 6298 update runs here on locals, and the
        # RTO, a function of the final (srtt, rttvar) alone, is derived
        # once after the loop.
        srtt = self._srtt
        rttvar = self._rttvar
        acked_seqs = []
        for seq, entry in in_flight.items():
            if entry[2] > ack:
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
        retransmitted = self._retransmitted
        if retransmitted:
            for seq in [s for s, entry in retransmitted.items() if entry[1] <= ack]:
                retransmitted.pop(seq)[0][CANCELLED] = True
        self._cc.on_ack(newly_acked, now)
        if self._tracer is not None:
            cc = self._cc
            self._tracer.emit(
                CwndSample, self.name, "ack", cc.cwnd, cc.ssthresh, self._rto, self._flight_size()
            )
        self._pump()
        # Level-triggered writability (like EPOLLOUT): whenever an ACK
        # frees buffer space, give the application a chance to write.
        if self._buffered < self._max_buffer:
            if self.endpoint is not None and self.endpoint.on_writable is not None:
                self.endpoint.on_writable()

    # --- receiver side (runs at the *other* host; links already added delay) ---
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
        if self._packets_since_ack + 1 >= DELAYED_ACK_SEGMENTS:
            # ``_send_ack_now``, inline: every second segment ends here.
            timer = self._ack_timer
            if timer is not None:
                timer[CANCELLED] = True
                self._ack_timer = None
            self._packets_since_ack = 0
            self._ack_link.transmit(ACK_SIZE, self._on_ack, self._rcv_next)
        else:
            self._packets_since_ack += 1
            if self._ack_timer is None:
                self._ack_timer = self._ack_lane.schedule(
                    DELAYED_ACK_TIMEOUT_MS, self._send_ack_now
                )

    def _send_ack_now(self) -> None:
        timer = self._ack_timer
        if timer is not None:
            timer[CANCELLED] = True  # a no-op when this is the timer firing
            self._ack_timer = None
        self._packets_since_ack = 0
        self._ack_link.transmit(ACK_SIZE, self._on_ack, self._rcv_next)


class TcpConnection(Duplex):
    """A full-duplex TCP connection between a client and a server."""

    transport = "tcp"
    _half = _HalfConnection
    _endpoint = Endpoint
