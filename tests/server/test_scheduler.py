"""Tests for the h2o-style stream schedulers."""

import pytest

from repro.h2 import H2Connection, PriorityData, Settings
from repro.netsim import DSL_TESTBED, Topology
from repro.server.scheduler import InterleavingScheduler
from repro.sim import Simulator


def make_pair():
    sim = Simulator()
    topo = Topology(sim, DSL_TESTBED)
    topo.add_host("1.1.1.1", ["s.example"])
    topo.prewarm_dns("s.example")
    pair = {}

    def on_conn(tcp):
        pair["server"] = H2Connection(tcp.server, "server", chunk_size=1400)
        pair["client"] = H2Connection(
            tcp.client, "client", settings=Settings(initial_window_size=1 << 22)
        )

    topo.open_connection("s.example", on_conn)
    sim.run()
    return sim, pair["client"], pair["server"]


REQUEST = [
    (":method", "GET"),
    (":scheme", "https"),
    (":authority", "s.example"),
    (":path", "/"),
]


def run_push_scenario(scheduler_factory, html_size=60_000, css_size=15_000, offset=None):
    """Serve HTML + one pushed CSS; record per-stream completion order."""
    sim, client, server = make_pair()
    finish = {}

    def on_request(sid, headers, prio):
        server.respond(sid, [(":status", "200")])
        pid = server.push(sid, REQUEST[:-1] + [(":path", "/style.css")])
        server.respond(pid, [(":status", "200")])
        if scheduler_factory is not None:
            scheduler = scheduler_factory(sid, pid)
            server.scheduler = scheduler
            server.send_body(sid, b"h" * html_size, end_stream=True)
            server.send_body(pid, b"c" * css_size, end_stream=True)
            scheduler.activate(server)
        else:
            server.send_body(sid, b"h" * html_size, end_stream=True)
            server.send_body(pid, b"c" * css_size, end_stream=True)

    server.on_request = on_request
    client.on_stream_end = lambda sid: finish.setdefault(sid, sim.now)
    client.request(REQUEST, priority=PriorityData(depends_on=0, weight=256))
    sim.run()
    return finish


def test_default_scheduler_serves_parent_first():
    finish = run_push_scenario(None)
    assert finish[1] < finish[2]  # HTML completes before the push


def test_interleaving_scheduler_pushes_css_first():
    finish = run_push_scenario(
        lambda sid, pid: InterleavingScheduler(
            parent_stream_id=sid, offset=2_000, critical_stream_ids=[pid]
        )
    )
    # The CSS (pushed after 2 KB of HTML) completes long before the HTML.
    assert finish[2] < finish[1]


def test_interleaving_resumes_parent():
    finish = run_push_scenario(
        lambda sid, pid: InterleavingScheduler(sid, 2_000, [pid]),
        html_size=30_000,
    )
    assert 1 in finish and 2 in finish  # both streams complete


def test_interleaving_with_no_critical_streams_is_default():
    finish = run_push_scenario(lambda sid, pid: InterleavingScheduler(sid, 2_000, []))
    assert finish[1] < finish[2]


def test_interleaving_offset_validation():
    with pytest.raises(ValueError):
        InterleavingScheduler(1, -5, [2])


def test_interleaving_unknown_parent_rejected():
    sim, client, server = make_pair()
    scheduler = InterleavingScheduler(99, 100, [2])
    with pytest.raises(ValueError):
        scheduler.activate(server)


def test_cancelled_critical_push_does_not_deadlock():
    """A client-cancelled critical push must not leave the HTML paused."""
    sim, client, server = make_pair()
    finish = {}

    def on_request(sid, headers, prio):
        server.respond(sid, [(":status", "200")])
        pid = server.push(sid, REQUEST[:-1] + [(":path", "/style.css")])
        server.respond(pid, [(":status", "200")])
        scheduler = InterleavingScheduler(sid, 2_000, [pid])
        server.scheduler = scheduler
        server.send_body(sid, b"h" * 50_000, end_stream=True)
        server.send_body(pid, b"c" * 10_000, end_stream=True)
        scheduler.activate(server)

    server.on_request = on_request
    # Cancel every push as soon as it is promised.
    client.on_push_promise = lambda parent, pid, headers: client.reset_stream(pid, 8)
    client.on_stream_end = lambda sid: finish.setdefault(sid, sim.now)
    client.request(REQUEST, priority=PriorityData(depends_on=0, weight=256))
    sim.run(until=30_000)
    assert 1 in finish  # the HTML still completed


def test_pausing_a_sending_stream_takes_effect_on_the_next_frame():
    """``pause_stream_at`` re-derives the stream's readiness at once: a
    stream mid-body stops at the offset, and lifting the cap resumes it."""
    sim, client, server = make_pair()
    received = []

    def on_request(sid, headers, prio):
        server.respond(sid, [(":status", "200")])
        server.send_body(sid, b"h" * 200_000, end_stream=True)
        assert sid in server._ready
        server.pause_stream_at(sid, 40_000)

    server.on_request = on_request
    client.on_data = lambda sid, span: received.append(len(span))
    finish = {}
    client.on_stream_end = lambda sid: finish.setdefault(sid, sim.now)
    sid = client.request(REQUEST, priority=PriorityData(depends_on=0, weight=256))
    sim.run()
    assert sum(received) == 40_000 and not finish
    assert sid not in server._ready and sid in server._send_candidates
    server.pause_stream_at(sid, None)
    assert sid in server._ready
    server._pump()
    sim.run()
    assert sum(received) == 200_000 and sid in finish
    assert not server._ready and not server._send_candidates
