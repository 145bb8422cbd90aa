"""What the TCP and QUIC models share, written once.

The two transports differ in their sequence space, loss detection, ACK
format and receive path, and in nothing else, so experiment contrasts
between them isolate exactly those differences.  The rest is here:
:class:`Endpoint` (one side of a connection, as the application sees
it), :class:`Half` (one direction's sender + receiver state and the one
RTO expiry, :meth:`Half._on_timeout`) and :class:`Duplex` (the
connection).  The transports subclass them rather than delegate to
them, so the shared fields cost no Python call per packet; for the same
reason the RFC 6298 update stays inline in each transport's ACK loop.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..errors import NetworkError
from ..sim import Simulator
from .conditions import NetworkConditions
from .congestion import make_congestion_control
from .link import SharedLink

#: Per-packet header overhead charged on the wire (IP + TCP; QUIC is
#: charged the TCP figure so bandwidth-bound comparisons are even).
HEADER_OVERHEAD = 40

#: Size charged for a pure ACK.
ACK_SIZE = 40

#: Default socket send-buffer size; the backpressure horizon.
DEFAULT_SEND_BUFFER = 16 * 1024

#: Delayed-ACK: acknowledge every Nth packet or after the timer fires.
DELAYED_ACK_SEGMENTS = 2
DELAYED_ACK_TIMEOUT_MS = 5.0


class Endpoint:
    """One side of an established connection.

    The application sets the callbacks: ``on_data`` receives in-order
    bytes and ``on_record`` each record (over QUIC, the control
    stream's), ``on_stream_data`` ``(stream_id, span, fin)`` as a
    resource stream's payload becomes contiguous (QUIC), and
    ``on_writable`` runs when send-buffer space frees after having been
    full: write until ``send`` accepts less than offered.
    """

    def __init__(self, half_out: "Half", half_in: "Half", name: str):
        self._out = half_out
        self._in = half_in
        self.name = name
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_record: Optional[Callable[[object], None]] = None
        self.on_stream_data: Optional[Callable[..., None]] = None
        self.on_writable: Optional[Callable[[], None]] = None
        half_out.endpoint = self
        half_in.receiver_endpoint = self

    def release(self) -> None:
        """Drop the application's callbacks and this side's links to
        the half-connections, which point back here; the byte counters
        of the halves stay readable through their own references."""
        self.on_data = self.on_record = self.on_stream_data = self.on_writable = None
        self._out.endpoint = None
        self._in.receiver_endpoint = None

    def send(self, data: bytes) -> int:
        """Buffer up to ``len(data)`` bytes; returns how many were
        accepted (fewer when the send buffer is full: wait for
        ``on_writable``)."""
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
        return self._out.buffer_space

    @property
    def bytes_sent(self) -> int:
        return self._out.bytes_enqueued

    @property
    def bytes_received(self) -> int:
        return self._in.bytes_delivered

    @property
    def all_sent_delivered(self) -> bool:
        """True when every byte ever accepted has been ACKed."""
        return self._out.fully_acked


class Half:
    """Sender + receiver state for one direction of a connection.

    A subclass adds its sequence space and receive path, ``enqueue``,
    ``enqueue_record``, ``fully_acked`` and the two hooks of recovery:
    ``_take_in_flight(key)`` removes what is in flight under ``key``,
    cancelling its timer, and returns it (None when nothing is), and
    ``_retransmit(key, lost, kind)`` sends it again and emits the
    transport's trace events.
    """

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
        self.endpoint: Optional[Endpoint] = None
        self.receiver_endpoint: Optional[Endpoint] = None

        # --- sender state ---
        #: Bytes accepted by ``enqueue`` and not yet sent.
        self._buffered = 0
        self._max_buffer = DEFAULT_SEND_BUFFER
        self._mss = conditions.mss
        self.bytes_enqueued = 0
        # Congestion control policy (Reno reproduces the historical
        # inline window arithmetic bit for bit; see netsim.congestion).
        self._cc = make_congestion_control(conditions.congestion_control, conditions.mss)
        #: Dedicated timer lanes: RTO deadlines (now + rto) and delayed
        #: ACK deadlines (now + 5ms) are each near-monotone within their
        #: class, so arming is an append and cancelling a slot write.
        self._rto_lane = sim.timer_lane()
        self._ack_lane = sim.timer_lane()
        # RFC 6298 adaptive retransmission timeout, updated inline by
        # each transport's ACK loop.  A fixed RTO melts down when many
        # connections share the uplink: ACK queueing inflates the RTT
        # past the timer and every segment is spuriously retransmitted.
        self._srtt: float = 0.0
        self._rttvar: float = 0.0
        self._rto = 1_000.0  # conservative until the first RTT sample

        # --- receiver state ---
        self.bytes_delivered = 0
        self._packets_since_ack = 0
        #: The pending delayed-ACK timer's queue entry; None = not armed.
        self._ack_timer: Optional[list] = None

    @property
    def buffer_space(self) -> int:
        space = self._max_buffer - self._buffered
        return space if space > 0 else 0

    def _on_timeout(self, key) -> None:
        """The retransmission timer armed for ``key`` expired (QUIC: the
        PTO); a no-op when what it covered has left the flight."""
        lost = self._take_in_flight(key)
        if lost is None:
            return
        self._cc.on_timeout(self._sim.now)
        # Per expiry, not per loss event: EXPERIMENTS.md deviation 5.
        self._rto = min(self._rto * 2.0, 60_000.0)  # exponential backoff
        self._retransmit(key, lost, "rto")


class Duplex:
    """A full-duplex connection between a client and a server.

    The two directions share the topology's access links: data from the
    server rides the downlink while its ACKs ride the uplink, and vice
    versa for requests.  A subclass names its ``transport`` (protocol
    layers read it to pick the matching framing adapter), its ``_half``
    class and its ``_endpoint`` class.
    """

    def __init__(
        self,
        sim: Simulator,
        downlink: SharedLink,
        uplink: SharedLink,
        conditions: NetworkConditions,
        rng: Optional[random.Random] = None,
        name: Optional[str] = None,
        tracer=None,
    ):
        rng = rng or random.Random(0)
        self.name = name = self.transport if name is None else name
        # client -> server direction: data on uplink, ACKs on downlink.
        self._c2s = self._half(sim, uplink, downlink, conditions, rng, f"{name}:c2s", tracer)
        # server -> client direction: data on downlink, ACKs on uplink.
        self._s2c = self._half(sim, downlink, uplink, conditions, rng, f"{name}:s2c", tracer)
        self.client = self._endpoint(self._c2s, self._s2c, f"{name}:client")
        self.server = self._endpoint(self._s2c, self._c2s, f"{name}:server")

    def set_send_buffer(self, size: int) -> None:
        """Set the send-buffer size for both directions."""
        mss = self._c2s._mss
        if size < mss:
            raise NetworkError(f"send buffer must hold at least one MSS ({mss})")
        self._c2s._max_buffer = size
        self._s2c._max_buffer = size
