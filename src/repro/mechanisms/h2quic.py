"""HTTP/2 framing over the QUIC transport.

The reproduction keeps the HTTP layer constant across transports so
that fig8's tcp-vs-quic contrast isolates *transport* behaviour: the
same HPACK encoder, priority tree, flow-control windows, push state
machine, and data scheduler drive both stacks.  What changes is the
mapping onto the wire (an HTTP/3-flavored framing, simplified):

* **Control plane on QUIC stream 0.**  The connection preface and
  every non-DATA frame (SETTINGS, HEADERS, PUSH_PROMISE, WINDOW_UPDATE,
  RST_STREAM, ...) ride the ordered control stream exactly as they
  ride TCP's one stream: control frames as bytes, and each header
  block as one :class:`~repro.h2.frames.HeaderBlock` record that the
  receiver neither parses nor decodes.  The QUIC half gives stream 0
  TCP's write-log contract, so the inherited ``_flush_control`` and
  ``_on_data_record`` are the whole header-block exchange on both
  transports.
* **Bodies on per-resource QUIC streams.**  DATA payloads are written
  raw to the QUIC stream matching their H2 stream id — no 9-byte frame
  header — with END_STREAM mapped to the QUIC fin.  A loss on one
  body stream therefore stalls only that resource, while TCP would
  hold every multiplexed byte behind the hole.
* **The same windows.**  A body received on a QUIC stream enters
  ``_on_data_record`` as a DATA frame would, so HTTP/2 flow control
  (RFC 7540 §6.9, the int windows of the parent class) counts it,
  credits it and refuses an overrun exactly as over TCP; QUIC's own
  stream and connection limits are not modelled.

Control frames are ordered only among themselves, so a body can
overtake the HEADERS before it; this adapter, not the §5.1 table,
absorbs that.  A pushed body that outran its PUSH_PROMISE or response
HEADERS is parked until those HEADERS arrive.  Response HEADERS behind
their whole body and fin still reach ``on_response`` (EXPERIMENTS.md,
known deviation 7).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ProtocolError
from ..h2.connection import (
    H2Connection,
    Header,
    _END_STREAM_RAW,
)
from ..h2.constants import StreamState
from ..netsim.quic import QuicEndpoint
from ..span import Span

_CLOSED = StreamState.CLOSED
_RESERVED_REMOTE = StreamState.RESERVED_REMOTE


class H2OverQuicConnection(H2Connection):
    """One endpoint of an HTTP/2 connection mapped onto QUIC streams."""

    def __init__(self, endpoint: QuicEndpoint, role: str, **kwargs):
        #: (data, fin) frames of a pushed body parked until its
        #: response HEADERS arrive.
        self._early_frames: Dict[int, List[Tuple[Span, bool]]] = {}
        super().__init__(endpoint, role, **kwargs)
        endpoint.on_stream_data = self._on_quic_stream_data

    # ------------------------------------------------------------------
    # send path: bodies bypass H2 DATA framing
    # ------------------------------------------------------------------
    # Scheduler, pacing and flow-control bookkeeping are the inherited
    # ``_flush_data``, so both transports make the same scheduling
    # decisions; only the emission differs: no 9-byte DATA header on
    # the wire, END_STREAM becomes the stream fin.
    _DATA_OVERHEAD = 0

    def _emit_data(self, stream_id: int, span: Span, end: bool) -> None:
        size = span.stop - span.start
        accepted = self._endpoint._out.enqueue_stream(stream_id, span, end)
        if accepted != size:
            # As over TCP: the frame was sized to the socket space, and
            # the windows and the body cursor have already moved.
            raise ProtocolError(
                f"transport accepted {accepted} of {size} DATA octets on stream {stream_id}"
            )

    # ------------------------------------------------------------------
    # receive path: per-stream payloads feed the DATA machinery
    # ------------------------------------------------------------------
    def _on_quic_stream_data(self, stream_id: int, data: Span, fin: bool) -> None:
        stream = self.streams.get(stream_id)
        if stream is None or stream.state is _RESERVED_REMOTE:
            # Only a loss on stream 0 lets a body get here first.
            self._early_frames.setdefault(stream_id, []).append((data, fin))
            return
        self._on_data_record((stream_id, data, _END_STREAM_RAW if fin else 0))

    def _drain_early_frames(self, stream_id: int) -> None:
        frames = self._early_frames.pop(stream_id, None)
        if frames is None:
            return
        for data, fin in frames:
            self._on_quic_stream_data(stream_id, data, fin)

    def _finish_header_block(self, stream_id: int, headers: List[Header], end_stream: bool) -> None:
        stream = self.streams.get(stream_id) if self.role == "client" else None
        if stream is not None and stream.state is _CLOSED and stream.response_headers is None:
            # Known deviation 7: the body and its fin closed the stream
            # before its response HEADERS arrived on the control stream.
            stream.response_headers = headers
            if self.on_response is not None:
                self.on_response(stream_id, headers)
            return
        super()._finish_header_block(stream_id, headers, end_stream)
        if self._early_frames:
            self._drain_early_frames(stream_id)


def h2_endpoint(conn, role: str, **kwargs) -> H2Connection:
    """The HTTP/2 endpoint for ``role`` on a transport connection: the
    stream mapping above over QUIC, plain H2 framing over TCP."""
    endpoint = conn.client if role == "client" else conn.server
    cls = H2OverQuicConnection if conn.transport == "quic" else H2Connection
    return cls(endpoint, role, **kwargs)
