"""Browser-side HTTP/1.1 connection pool.

Browsers open up to six parallel connections per origin for HTTP/1.1
and serialize requests on each — the connection behaviour whose
head-of-line blocking H2's multiplexing was designed to remove (§1).
The pool exposes a fetch-oriented interface so the browser engine can
drive H1 loads through the same code path as H2 ones.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from ..html.resources import split_url
from ..netsim.topology import Topology
from .connection import H1ClientConnection

#: Per-origin parallel connection limit (RFC 7230-era browsers).
MAX_CONNECTIONS_PER_ORIGIN = 6


class _PooledConnection:
    __slots__ = ("conn", "busy")

    def __init__(self, conn: H1ClientConnection):
        self.conn = conn
        self.busy = False


class H1OriginPool:
    """All H1 connections of one origin plus its request queue."""

    def __init__(self, topology: Topology, domain: str, on_accept: Callable):
        self._topology = topology
        self._domain = domain
        self._on_accept = on_accept
        self._connections: List[_PooledConnection] = []
        self._opening = 0
        self._queue: Deque[dict] = deque()
        self.on_first_established: Optional[Callable[[], None]] = None
        self._established_once = False

    # ------------------------------------------------------------------
    def fetch(
        self,
        url: str,
        on_response: Callable,
        on_data: Callable,
        on_complete: Callable,
        headers: Optional[list] = None,
        on_informational: Optional[Callable] = None,
    ) -> None:
        self._queue.append(
            {
                "url": url,
                "on_response": on_response,
                "on_data": on_data,
                "on_complete": on_complete,
                "headers": headers or [],
                "on_informational": on_informational,
            }
        )
        self._dispatch()

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        while self._queue:
            slot = self._idle_connection()
            if slot is None:
                if (
                    len(self._connections) + self._opening
                    < MAX_CONNECTIONS_PER_ORIGIN
                ):
                    self._open_connection()
                return
            request = self._queue.popleft()
            self._start(slot, request)

    def _idle_connection(self) -> Optional[_PooledConnection]:
        for pooled in self._connections:
            if not pooled.busy:
                return pooled
        return None

    def _open_connection(self) -> None:
        self._opening += 1

        def established(tcp):
            self._opening -= 1
            self._on_accept(tcp)
            pooled = _PooledConnection(H1ClientConnection(tcp.client))
            self._connections.append(pooled)
            if not self._established_once:
                self._established_once = True
                if self.on_first_established is not None:
                    self.on_first_established()
            self._dispatch()

        self._topology.open_connection(self._domain, established)

    def _start(self, pooled: _PooledConnection, request: dict) -> None:
        pooled.busy = True
        conn = pooled.conn
        conn.on_response = request["on_response"]
        conn.on_informational = request["on_informational"]
        conn.on_data = request["on_data"]

        def complete() -> None:
            pooled.busy = False
            request["on_complete"]()
            self._dispatch()

        conn.on_complete = complete
        domain, path = split_url(request["url"])
        conn.request("GET", path, domain, headers=request["headers"])

    @property
    def connection_count(self) -> int:
        return len(self._connections)

    def release(self) -> None:
        """Release every pooled connection and drop the queued
        requests and callbacks, which lead back to the page."""
        for pooled in self._connections:
            pooled.conn.release()
        self._queue.clear()
        self.on_first_established = None


class H1PoolManager:
    """Per-origin pools for one page load."""

    def __init__(self, topology: Topology, accept_for_ip: Callable[[str], Callable]):
        self._topology = topology
        self._accept_for_ip = accept_for_ip
        self._pools: Dict[str, H1OriginPool] = {}

    def pool_for(self, domain: str) -> H1OriginPool:
        pool = self._pools.get(domain)
        if pool is None:
            ip = self._topology.resolve(domain)
            pool = H1OriginPool(self._topology, domain, self._accept_for_ip(ip))
            self._pools[domain] = pool
        return pool

    def release(self) -> None:
        """Release every pool and the accept callback, a closure over
        the page."""
        for pool in self._pools.values():
            pool.release()
        self._accept_for_ip = None
