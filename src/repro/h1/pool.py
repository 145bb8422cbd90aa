"""Browser-side HTTP/1.1 connection pool.

Browsers open up to six parallel connections per origin for HTTP/1.1
and serialize requests on each — the connection behaviour whose
head-of-line blocking H2's multiplexing was designed to remove (§1).

An :class:`H1OriginPool` is one origin's client: it has the client
surface of :class:`~repro.h2.connection.H2Connection` — ``request``
returns a stream id, responses arrive at the same ``on_*`` callbacks,
``release`` cuts it loose — so the browser drives H1 and H2 origins
through one request path.  Each origin numbers its exchanges from 0 in
request order; an exchange waits in the queue until one of the
origin's connections is idle.  H1 has no push, so ``on_push_promise``
is never called.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from ..netsim.tcp import TcpConnection
from ..netsim.topology import Topology
from ..span import Span
from .connection import Header, H1ClientConnection

if TYPE_CHECKING:
    from ..h2.frames import PriorityData

#: Per-origin parallel connection limit (RFC 7230-era browsers).
MAX_CONNECTIONS_PER_ORIGIN = 6


class H1OriginPool:
    """All H1 connections of one origin plus its request queue.

    ``on_connect`` receives each new transport connection before the
    pool sends on it; the caller hands the server its end there.
    """

    def __init__(
        self,
        topology: Topology,
        domain: str,
        on_connect: Callable[[TcpConnection], None],
    ):
        self._topology = topology
        self._domain = domain
        self._on_connect = on_connect
        self._trace_name = f"h1-{domain}"
        self._connections: List[H1ClientConnection] = []
        self._opening = 0
        self._queue: Deque[Tuple[int, List[Header]]] = deque()
        self._next_stream_id = 0

        self.on_response: Optional[Callable[[int, List[Header]], None]] = None
        self.on_informational: Optional[Callable[[int, List[Header]], None]] = None
        self.on_data: Optional[Callable[[int, Span], None]] = None
        self.on_stream_end: Optional[Callable[[int], None]] = None
        self.on_push_promise: Optional[Callable[[int, int, List[Header]], None]] = None

    # ------------------------------------------------------------------
    def request(
        self, headers: List[Header], priority: Optional["PriorityData"] = None
    ) -> int:
        """Queue a request; returns its stream id.  HTTP/1.1 has no
        priorities, so ``priority`` is ignored."""
        stream_id = self._next_stream_id
        self._next_stream_id += 1
        self._queue.append((stream_id, headers))
        self._dispatch()
        return stream_id

    @property
    def connection_count(self) -> int:
        return len(self._connections)

    def release(self) -> None:
        """Release every connection and drop the queued requests and
        the callbacks, which lead back to the page."""
        for conn in self._connections:
            conn.release()
        self._queue.clear()
        self._on_connect = None
        self.on_response = self.on_informational = None
        self.on_data = self.on_stream_end = self.on_push_promise = None

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        while self._queue:
            conn = next((c for c in self._connections if not c.busy), None)
            if conn is None:
                if (
                    len(self._connections) + self._opening
                    < MAX_CONNECTIONS_PER_ORIGIN
                ):
                    self._opening += 1
                    self._topology.open_connection(self._domain, self._established)
                return
            # The exchange reports to the callbacks set when it starts.
            conn.on_response = self.on_response
            conn.on_informational = self.on_informational
            conn.on_data = self.on_data
            conn.request(*self._queue.popleft())

    def _established(self, tcp: TcpConnection) -> None:
        self._opening -= 1
        self._on_connect(tcp)
        conn = H1ClientConnection(tcp.client)
        conn.on_stream_end = self._on_stream_end
        self._connections.append(conn)
        self._dispatch()

    def _on_stream_end(self, stream_id: int) -> None:
        self.on_stream_end(stream_id)
        self._dispatch()
