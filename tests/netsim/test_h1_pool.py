"""Unit tests for the HTTP/1.1 connection pool, driven through the
client surface it shares with ``H2Connection``."""

from repro.h1.pool import MAX_CONNECTIONS_PER_ORIGIN, H1OriginPool
from repro.h1.server import H1ReplayServer
from repro.html import build_site
from repro.netsim import DSL_TESTBED, Topology
from repro.replay import ReplayTestbed
from repro.replay.matcher import RequestMatcher
from repro.replay.recorddb import RecordDatabase, ResponseRecord
from repro.sim import Simulator
from repro.trace import Tracer
from repro.trace.core import Milestone


def make_env(record_count=12):
    sim = Simulator()
    topo = Topology(sim, DSL_TESTBED)
    topo.add_host("1.1.1.1", ["pool.example"])
    topo.prewarm_dns("pool.example")
    db = RecordDatabase()
    for index in range(record_count):
        db.add(
            ResponseRecord(
                url=f"https://pool.example/r{index}",
                headers=[("content-type", "text/plain")],
                body=b"x" * 5_000,
            )
        )
    server = H1ReplayServer(ip="1.1.1.1", matcher=RequestMatcher(db))
    pool = H1OriginPool(topo, "pool.example", server.accept)
    return sim, pool, server


def fetch_all(sim, pool, count):
    """Request ``r0`` .. ``r{count-1}``; returns (stream id, status,
    body octets, end time) per finished exchange."""
    statuses, sizes, finished = {}, {}, []
    pool.on_response = lambda sid, headers: statuses.setdefault(sid, dict(headers)[":status"])
    pool.on_data = lambda sid, span: sizes.__setitem__(sid, sizes.get(sid, 0) + len(span))
    pool.on_stream_end = lambda sid: finished.append((sid, statuses[sid], sizes[sid], sim.now))
    for index in range(count):
        pool.request(
            [
                (":method", "GET"),
                (":scheme", "https"),
                (":authority", "pool.example"),
                (":path", f"/r{index}"),
            ]
        )
    sim.run()
    return finished


def test_all_requests_complete():
    sim, pool, server = make_env()
    finished = fetch_all(sim, pool, 12)
    assert sorted(sid for sid, *_ in finished) == list(range(12))
    assert all(status == "200" and size == 5_000 for _sid, status, size, _t in finished)
    assert server.requests_served == 12


def test_connection_cap_respected():
    sim, pool, _server = make_env()
    fetch_all(sim, pool, 12)
    assert pool.connection_count <= MAX_CONNECTIONS_PER_ORIGIN


def test_single_request_uses_one_connection():
    sim, pool, _server = make_env(record_count=1)
    finished = fetch_all(sim, pool, 1)
    assert pool.connection_count == 1
    assert [sid for sid, *_ in finished] == [0]


def test_connections_are_reused_across_waves():
    sim, pool, _server = make_env(record_count=12)
    fetch_all(sim, pool, 12)
    first_wave = pool.connection_count
    # A second wave reuses the warm pool instead of reconnecting, and
    # its exchanges keep counting where the first wave stopped.
    finished = fetch_all(sim, pool, 6)
    assert pool.connection_count == first_wave
    assert sorted(sid for sid, *_ in finished) == list(range(12, 18))


def test_first_established_fires_once():
    """An H1 page load opens several connections; connectEnd is the
    first of them, recorded once."""
    from tests.integration.test_h1_baseline import many_objects_spec

    tracer = Tracer()
    result = ReplayTestbed(built=build_site(many_objects_spec()), protocol="h1").run(
        tracer=tracer
    )
    assert result.connections > 1
    marks = [
        event.t
        for event in tracer.events()
        if isinstance(event, Milestone) and event.milestone == "connect_end"
    ]
    assert marks == [result.timeline.connect_end]
