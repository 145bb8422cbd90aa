"""Edge-case tests for the H2 connection layer."""

import pytest

from repro.errors import ProtocolError, StreamError
from repro.h2 import ErrorCode, H2Connection, PriorityData, Settings
from tests.h2.test_connection import REQUEST, make_pair


def test_respond_on_unknown_stream_rejected():
    sim, client, server = make_pair()
    with pytest.raises(StreamError):
        server.respond(99, [(":status", "200")])


def test_send_body_on_unknown_stream_rejected():
    sim, client, server = make_pair()
    with pytest.raises(StreamError):
        server.send_body(99, b"x")


def test_push_on_closed_parent_rejected():
    sim, client, server = make_pair()
    errors = []

    def on_request(sid, headers, prio):
        server.respond(sid, [(":status", "200")], end_stream=True)
        try:
            server.push(sid, REQUEST)
        except StreamError as exc:
            errors.append(exc)

    server.on_request = on_request
    client.request(REQUEST)
    sim.run()
    assert len(errors) == 1


def test_priority_frame_reprioritizes_server_tree():
    sim, client, server = make_pair()
    server.on_request = lambda sid, h, p: server.respond(
        sid, [(":status", "200")], end_stream=False
    )
    first = client.request(REQUEST, priority=PriorityData(depends_on=0, weight=100))
    second = client.request(REQUEST, priority=PriorityData(depends_on=0, weight=100))
    sim.run()
    client.send_priority(second, PriorityData(depends_on=first, weight=42))
    sim.run()
    assert server.priority_tree.parent_of(second) == first
    assert server.priority_tree.weight_of(second) == 42


def test_window_update_for_closed_stream_ignored():
    sim, client, server = make_pair()
    server.on_request = lambda sid, h, p: server.respond(
        sid, [(":status", "200")], end_stream=True
    )
    stream_id = client.request(REQUEST)
    sim.run()
    # A late WINDOW_UPDATE for the now-closed stream must not blow up.
    from repro.h2.frames import WindowUpdateFrame

    server._handle_window_update(WindowUpdateFrame(stream_id=stream_id, increment=100))


def test_settings_shrink_adjusts_open_stream_windows():
    sim, client, server = make_pair(
        client_settings=Settings(initial_window_size=100_000)
    )
    opened = {}

    def on_request(sid, headers, prio):
        opened["sid"] = sid
        server.respond(sid, [(":status", "200")])

    server.on_request = on_request
    client.request(REQUEST)
    sim.run()
    before = server.streams[opened["sid"]].send_window
    # Client shrinks its advertised window mid-connection.
    from repro.h2.frames import SettingsFrame
    from repro.h2.constants import SettingCode

    server._handle_settings(
        SettingsFrame(stream_id=0, settings={int(SettingCode.INITIAL_WINDOW_SIZE): 50_000})
    )
    after = server.streams[opened["sid"]].send_window
    assert after == before - 50_000


def test_data_for_reset_stream_dropped():
    sim, client, server = make_pair()

    def on_request(sid, headers, prio):
        server.respond(sid, [(":status", "200")])
        server.send_body(sid, b"x" * 200_000, end_stream=True)

    server.on_request = on_request
    received = []
    client.on_data = lambda sid, data: received.append(len(data))

    def on_response(sid, headers):
        # Cancel as soon as headers arrive; in-flight data must be
        # discarded silently on both ends.
        client.reset_stream(sid, ErrorCode.CANCEL)

    client.on_response = on_response
    client.request(REQUEST)
    sim.run()
    assert sum(received) < 200_000


def test_invalid_role_rejected():
    from repro.netsim import DSL_TESTBED, Topology
    from repro.sim import Simulator

    sim = Simulator()
    topo = Topology(sim, DSL_TESTBED)
    topo.add_host("1.1.1.1", ["x.example"])
    holder = {}
    topo.open_connection("x.example", lambda tcp: holder.setdefault("tcp", tcp))
    sim.run()
    with pytest.raises(ProtocolError):
        H2Connection(holder["tcp"].client, "proxy")


def test_frame_counters_increase():
    sim, client, server = make_pair()
    server.on_request = lambda sid, h, p: server.respond(
        sid, [(":status", "200")], end_stream=True
    )
    client.request(REQUEST)
    sim.run()
    assert client.frames_sent >= 3   # SETTINGS, WINDOW_UPDATE, HEADERS, ACKs
    assert server.frames_received >= 3
    assert client.frames_received >= 2
