"""Testbed orchestration: replay one website under one configuration.

This is the package's main entry point, equivalent to one browsertime
invocation against the paper's Mahimahi deployment: it wires together
the simulator, the shaped access link, one replay server per recorded
IP (with SAN certificates for coalescing), the push strategy, and the
browser model, then runs the page load to completion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..browser.cache import BrowserCache
from ..browser.engine import BrowserConfig, PageLoad
from ..browser.timings import PageTimeline
from ..errors import ConfigError
from ..html.builder import BuiltSite, build_site
from ..html.spec import WebsiteSpec
from ..metrics.speedindex import speed_index_of
from ..netsim.conditions import DSL_TESTBED, NetworkConditions
from ..netsim.topology import Topology
from ..server.h2server import ReplayServer, ServerFarm
from ..sim import Simulator, new_simulator
from ..strategies.base import PushStrategy
from .certs import CertificateAuthority
from .matcher import RequestMatcher
from .recorddb import RecordDatabase
from .recorder import record_site


#: Simulated time after which an unfinished load is an error.
LOAD_TIMEOUT_MS = 300_000.0


@dataclass(slots=True)
class PageLoadResult:
    """Outcome of one replayed page load."""

    site: str
    strategy: str
    plt_ms: float
    speed_index_ms: float
    timeline: PageTimeline
    pushed_bytes: int
    downlink_bytes: int
    uplink_bytes: int
    connections: int
    requests: int

    @property
    def first_paint_ms(self) -> Optional[float]:
        if self.timeline.first_paint is None or self.timeline.connect_end is None:
            return None
        return self.timeline.first_paint - self.timeline.connect_end


@dataclass
class ReplayProbe:
    """Post-run view of testbed internals for diagnostics/benchmarks.

    Handed to the optional ``probe`` callback of :meth:`ReplayTestbed.run`
    so the perf harness can read determinism counters (events processed,
    frames on the wire) without changing any result dataclass.

    The load's world is released once the probe returns: a view kept
    past that point still reads every counter (events processed, frames
    sent and received, link bytes, impairment packet counts), but the
    callbacks that wired the world together are gone, so it cannot be
    driven further.
    """

    sim: Simulator
    topology: Topology
    farm: ServerFarm
    page: PageLoad

    @property
    def events_processed(self) -> int:
        return self.sim.events_processed

    @property
    def server_frames(self) -> int:
        """Frames sent + received across all server H2 connections.

        Receipts count the client's frames, so the sum covers both
        directions of the wire deterministically (H1 servers have no
        frame counters and contribute zero).
        """
        total = 0
        for server in self.farm:
            if server.protocol == "h2":
                for conn in server.connections:
                    total += conn.frames_sent + conn.frames_received
        return total


@dataclass
class ReplayTestbed:
    """A reusable site deployment; each :meth:`run` is one fresh load."""

    built: BuiltSite
    conditions: NetworkConditions = DSL_TESTBED
    strategy: Optional[PushStrategy] = None
    browser_config: Optional[BrowserConfig] = None
    #: "h2" (default) or "h1" — the push-less HTTP/1.1 baseline.
    protocol: str = "h2"
    #: Pre-recorded response database.  ``None`` records ``built`` on
    #: construction; warm workers inject a shared instance instead.  The
    #: database is read-only during replay, so reuse across runs, cells,
    #: and testbeds cannot alter any result.
    db: Optional[RecordDatabase] = None

    def __post_init__(self) -> None:
        if self.db is None:
            self.db = record_site(self.built)

    # ------------------------------------------------------------------
    def run(
        self,
        cache: Optional[BrowserCache] = None,
        seed: int = 0,
        probe: Optional[Callable[["ReplayProbe"], None]] = None,
        impairment_seed: Optional[int] = None,
        tracer=None,
    ) -> PageLoadResult:
        """Replay the site once; returns metrics and the full timeline.

        ``probe`` (if given) is invoked with a :class:`ReplayProbe` after
        the load completes, exposing simulator/server internals for the
        perf harness without widening :class:`PageLoadResult`.

        ``impairment_seed`` seeds the link impairment pipeline when the
        conditions enable one; the engine runner derives it per cell via
        :func:`repro.experiments.seeds.impairment_seed`, and direct
        callers fall back to the same derivation from ``seed``.

        ``tracer`` (a :class:`repro.trace.Tracer`, or ``None`` for off)
        observes the load: every event is stamped with simulated time
        and every hook is read-only, so traced results are bit-identical
        to untraced ones.  Traces travel out-of-band —
        :class:`PageLoadResult` is unchanged.
        """
        sim = new_simulator()
        if tracer is not None:
            tracer.attach(sim)
            tracer.meta.setdefault("site", self.built.spec.name)
            tracer.meta.setdefault("strategy", self._strategy_name())
            tracer.meta.setdefault("seed", seed)
        rng = random.Random(seed)
        spec = self.built.spec
        if self.protocol == "h1" and self.conditions.transport != "tcp":
            raise ConfigError(
                "the HTTP/1.1 baseline runs over TCP only; "
                f"got transport={self.conditions.transport!r}"
            )
        impairment_rng = None
        impairment = self.conditions.impairment
        if impairment is not None and impairment.enabled:
            if impairment_seed is None:
                # Lazy import: experiments depends on replay, not vice
                # versa, so pull the seed formula in at call time only.
                from ..experiments.seeds import impairment_seed as derive

                impairment_seed = derive(seed, 0)
            impairment_rng = random.Random(impairment_seed)
        topology = Topology(
            sim, self.conditions, rng=rng, impairment_rng=impairment_rng, tracer=tracer
        )
        ca = CertificateAuthority()
        farm = ServerFarm()

        ip_domains: Dict[str, List[str]] = {}
        for domain in sorted(spec.all_domains()):
            ip = spec.ip_of_domain(domain)
            ip_domains.setdefault(ip, []).append(domain)
        for ip, domains in ip_domains.items():
            topology.add_host(ip, domains)
            cert = ca.issue(ip, domains)
            if self.protocol == "h1":
                from ..h1.server import H1ReplayServer

                farm.add(
                    H1ReplayServer(
                        ip=ip,
                        matcher=RequestMatcher(self.db),
                        strategy=self.strategy,
                        tracer=tracer,
                    )
                )
            else:
                farm.add(
                    ReplayServer(
                        sim=sim,
                        ip=ip,
                        matcher=RequestMatcher(self.db),
                        certificate=cert,
                        strategy=self.strategy,
                        server_delay_ms=self.conditions.server_delay_ms,
                        tracer=tracer,
                    )
                )

        config = self.browser_config or BrowserConfig()
        if self.strategy is not None and not self.strategy.client_push_enabled:
            import dataclasses

            config = dataclasses.replace(config, enable_push=False)
        page = PageLoad(
            sim=sim,
            topology=topology,
            servers=farm,
            ca=ca,
            main_url=self.built.html_url,
            config=config,
            cache=cache,
            rng=random.Random(seed + 7919),
            tracer=tracer,
        )
        try:
            page.start()
            sim.run(until=LOAD_TIMEOUT_MS)
            if not page.finished:
                raise ConfigError(
                    f"page load of {spec.name} did not finish within {LOAD_TIMEOUT_MS} ms "
                    f"(strategy={self._strategy_name()})"
                )
            if probe is not None:
                probe(ReplayProbe(sim=sim, topology=topology, farm=farm, page=page))
            timeline = page.timeline
            return PageLoadResult(
                site=spec.name,
                strategy=self._strategy_name(),
                plt_ms=timeline.plt_ms,
                speed_index_ms=speed_index_of(timeline),
                timeline=timeline,
                pushed_bytes=farm.total_pushed_bytes,
                downlink_bytes=topology.downlink.bytes_transmitted,
                uplink_bytes=topology.uplink.bytes_transmitted,
                connections=topology.connections_opened,
                requests=len(timeline.requests),
            )
        finally:
            # The world is a web of callbacks (connection <-> endpoint,
            # browser <-> connection, simulator <-> armed events); cut
            # it so that reference counting, not the cyclic collector,
            # frees a finished or failed load.
            page.release()
            for server in farm:
                server.release()
            sim.release()

    def _strategy_name(self) -> str:
        return self.strategy.name if self.strategy is not None else "no_push"


def replay_site(
    spec: WebsiteSpec,
    strategy: Optional[PushStrategy] = None,
    conditions: NetworkConditions = DSL_TESTBED,
    cache: Optional[BrowserCache] = None,
    seed: int = 0,
    browser_config: Optional[BrowserConfig] = None,
) -> PageLoadResult:
    """Build, record, and replay a website spec in one call."""
    testbed = ReplayTestbed(
        built=build_site(spec),
        conditions=conditions,
        strategy=strategy,
        browser_config=browser_config,
    )
    return testbed.run(cache=cache, seed=seed)
