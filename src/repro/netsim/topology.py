"""Testbed topology: one client behind an access link, many origins.

Mahimahi spawns one local server per recorded IP inside network
namespaces so that the replayed page uses the same connection pattern
as the live Internet (§4.1).  The equivalent here: every origin IP is a
:class:`Host`, and every connection from the client to any host crosses
the same shared downlink/uplink pair (the emulated DSL access link).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from ..errors import NetworkError
from ..sim import Simulator
from .conditions import NetworkConditions
from .handshake import (
    QUIC_0RTT_HANDSHAKE,
    QUIC_HANDSHAKE,
    TLS12_HANDSHAKE,
    HandshakeModel,
)
from .impairment import ImpairmentPipeline
from .link import SharedLink
from .quic import QuicConnection
from .tcp import TcpConnection
from .transport import Duplex


class Host:
    """A server host identified by an IP, serving one or more domains."""

    def __init__(self, ip: str):
        self.ip = ip
        self.domains: set = set()

    def add_domain(self, domain: str) -> None:
        self.domains.add(domain)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host(ip={self.ip!r}, domains={sorted(self.domains)!r})"


class Topology:
    """The client's access link plus the set of origin hosts."""

    def __init__(
        self,
        sim: Simulator,
        conditions: NetworkConditions,
        handshake: HandshakeModel = TLS12_HANDSHAKE,
        rng: Optional[random.Random] = None,
        impairment_rng: Optional[random.Random] = None,
        tracer=None,
    ):
        self.sim = sim
        self.conditions = conditions
        self.handshake = handshake
        self._rng = rng or random.Random(0)
        #: Optional event tracer, threaded into every connection and
        #: impairment pipeline this topology creates.
        self._tracer = tracer
        # The impairment pipelines get a *separate* RNG stream (seeded
        # per cell via experiments.seeds.impairment_seed) so that adding
        # or removing impairments never perturbs the handshake/jitter
        # draws of the historical stream — and so a clean run performs
        # zero impairment draws, keeping it bit-identical to the
        # pre-impairment model.
        down_pipeline = up_pipeline = None
        impairment = conditions.impairment
        if impairment is not None and impairment.enabled:
            shared_rng = impairment_rng or random.Random(0)
            down_pipeline = ImpairmentPipeline(impairment, shared_rng, name="downlink")
            up_pipeline = ImpairmentPipeline(impairment, shared_rng, name="uplink")
            if tracer is not None:
                down_pipeline.tracer = tracer
                up_pipeline.tracer = tracer
        self.downlink = SharedLink(
            sim,
            conditions.downlink_bytes_per_ms,
            conditions.one_way_ms,
            jitter_ms=conditions.jitter_ms,
            rng=self._rng,
            name="downlink",
            impairments=down_pipeline,
        )
        self.uplink = SharedLink(
            sim,
            conditions.uplink_bytes_per_ms,
            conditions.one_way_ms,
            jitter_ms=conditions.jitter_ms,
            rng=self._rng,
            name="uplink",
            impairments=up_pipeline,
        )
        self._hosts: Dict[str, Host] = {}
        self._domain_to_ip: Dict[str, str] = {}
        self._dns_cache: set = set()
        self._connection_count = 0
        #: Origins already visited over QUIC this page load; a second
        #: connection to one resumes the session (0-RTT accounting)
        #: when ``conditions.quic_0rtt`` allows it.
        self._quic_sessions: set = set()

    # ------------------------------------------------------------------
    # host / DNS management
    # ------------------------------------------------------------------
    def add_host(self, ip: str, domains) -> Host:
        host = self._hosts.get(ip)
        if host is None:
            host = Host(ip)
            self._hosts[ip] = host
        for domain in domains:
            existing = self._domain_to_ip.get(domain)
            if existing is not None and existing != ip:
                raise NetworkError(f"domain {domain} already mapped to {existing}")
            host.add_domain(domain)
            self._domain_to_ip[domain] = ip
        return host

    def resolve(self, domain: str) -> str:
        """DNS lookup: domain to IP (raises for unknown domains)."""
        try:
            return self._domain_to_ip[domain]
        except KeyError:
            raise NetworkError(f"no host serves domain {domain!r}") from None

    @property
    def hosts(self) -> Dict[str, Host]:
        return dict(self._hosts)

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    def open_connection(
        self,
        domain: str,
        on_established: Callable[[Duplex], None],
    ) -> None:
        """Open a transport connection to the host serving ``domain``.

        The handshake delay elapses before ``on_established`` is
        invoked with the ready connection.  Over TCP that is DNS (if
        uncached) + TCP + TLS; over QUIC it is DNS + one combined
        round trip, or none at all for a 0-RTT resumption of an origin
        already visited this page load.
        """
        ip = self.resolve(domain)
        dns_cached = domain in self._dns_cache
        self._dns_cache.add(domain)
        if self.conditions.transport == "quic":
            resumable = self.conditions.quic_0rtt and ip in self._quic_sessions
            self._quic_sessions.add(ip)
            model = QUIC_0RTT_HANDSHAKE if resumable else QUIC_HANDSHAKE
            connection = QuicConnection
        else:
            model = self.handshake
            connection = TcpConnection
        delay = model.connect_ms(self.conditions, dns_cached)
        self._connection_count += 1
        name = f"{connection.transport}-{self._connection_count}-{domain}"

        def establish() -> None:
            on_established(
                connection(
                    self.sim,
                    downlink=self.downlink,
                    uplink=self.uplink,
                    conditions=self.conditions,
                    rng=self._rng,
                    name=name,
                    tracer=self._tracer,
                )
            )

        self.sim.schedule(delay, establish)

    def prewarm_dns(self, domain: str) -> None:
        """Mark a domain's DNS entry as cached (used for the navigation
        origin, whose lookup happens before ``connectEnd``)."""
        self._dns_cache.add(domain)

    @property
    def connections_opened(self) -> int:
        return self._connection_count
