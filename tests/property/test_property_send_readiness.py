"""Property tests for the connection's live ready set.

``H2Connection._ready`` is maintained incrementally: one stream is
re-derived when its own inputs change, every candidate only on a
connection-wide transition.  The oracles here are the code that was
replaced, kept test-local:

* ``ready_by_rescan`` — the old per-frame filter, applied from scratch
  to every stream the connection knows;
* ``reference_select`` — the old recursive priority-tree walk
  (``_select_from`` + ``_subtree_has_ready``);
* ``reference_interleaving_choice`` — the old interleaving phases over
  a copied set.

A checking scheduler asserts all three at *every* frame decision, so a
stale ready set is caught on the frame it would have mis-scheduled, not
only between operations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.h2 import ErrorCode, PriorityData, Settings
from repro.h2.constants import SettingCode, StreamState
from repro.h2.frames import SettingsFrame, WindowUpdateFrame
from repro.h2.priority import PriorityTree
from repro.h2.stream import H2Stream
from repro.server.scheduler import InterleavingScheduler
from tests.h2.test_connection import REQUEST, make_pair
from tests.property.test_property_priority import apply_operations, tree_operations

INITIAL_WINDOW = int(SettingCode.INITIAL_WINDOW_SIZE)


# ----------------------------------------------------------------------
# oracles: the replaced code
# ----------------------------------------------------------------------
def ready_by_rescan(conn):
    """The old ``_ready_streams`` filter over every stream of ``conn``."""
    window_open = conn._conn_send_window > 0
    ready = set()
    for stream_id, stream in conn.streams.items():
        if stream.state >= StreamState.CLOSED:
            continue
        wants_end = (
            stream._end_after_queue
            and stream.state is not StreamState.HALF_CLOSED_LOCAL
        )
        if stream.queued_bytes > 0:
            if window_open and stream.sendable_bytes() > 0:
                ready.add(stream_id)
        elif wants_end:
            ready.add(stream_id)
    return ready


def reference_select(tree: PriorityTree, ready):
    """The old recursive ``PriorityTree.select``."""

    def subtree_has_ready(node):
        if node.stream_id in ready:
            return True
        return any(subtree_has_ready(child) for child in node.children.values())

    def select_from(node):
        if node.stream_id in ready:
            return node.stream_id
        best = None
        for child in node.children.values():
            if not subtree_has_ready(child):
                continue
            if best is None or (child.virtual_time, child.stream_id) < (
                best.virtual_time,
                best.stream_id,
            ):
                best = child
        return None if best is None else select_from(best)

    ready = set(ready)
    return select_from(tree._root) if ready else None


def reference_interleaving_choice(scheduler, tree, ready):
    """The old ``InterleavingScheduler.select`` over a copy of ``ready``."""
    ready = set(ready)
    if not scheduler._finished:
        if scheduler.parent_stream_id in ready:
            return scheduler.parent_stream_id
        for stream_id in scheduler.critical_order:
            if stream_id in ready and stream_id in scheduler._critical_pending:
                return stream_id
    return reference_select(tree, ready)


def assert_ready_is_fresh(conn):
    assert conn._ready == ready_by_rescan(conn)
    assert conn._ready <= conn._send_candidates


class CheckingScheduler:
    """Default discipline (what a connection does with no scheduler
    installed); every decision compared with the oracles."""

    def select(self, conn, ready):
        assert ready is conn._ready
        assert_ready_is_fresh(conn)
        chosen = conn.priority_tree.select(ready)
        assert chosen == reference_select(conn.priority_tree, ready)
        return chosen

    def on_data_sent(self, conn, stream_id, size, end):
        conn.priority_tree.charge(stream_id, size)

    def on_stream_reset(self, conn, stream_id):
        pass


class CheckingInterleavingScheduler(InterleavingScheduler):
    def select(self, conn, ready):
        assert ready is conn._ready
        assert_ready_is_fresh(conn)
        expected = reference_interleaving_choice(self, conn.priority_tree, ready)
        assert super().select(conn, ready) == expected
        return expected


# ----------------------------------------------------------------------
# the priority tree alone: wide trees, where sibling order matters
# ----------------------------------------------------------------------
@given(
    operations=tree_operations(),
    charges=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 20_000)), max_size=30),
    picks=st.lists(st.integers(0, 40), max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_iterative_select_matches_recursive_reference(operations, charges, picks):
    tree, live = apply_operations(operations)
    ordered = sorted(live)
    if not ordered:
        assert tree.select(set()) is None
        return
    for index, size in charges:
        tree.charge(ordered[index % len(ordered)], size)
    ready = {ordered[index % len(ordered)] for index in picks}
    assert tree.select(ready) == reference_select(tree, ready)
    # Serving the winner moves its virtual time; the next pick must
    # still agree (and may be a sibling now).
    for _ in range(4):
        chosen = tree.select(ready)
        if chosen is None:
            break
        tree.charge(chosen, 1_400)
        assert tree.select(ready) == reference_select(tree, ready)


# ----------------------------------------------------------------------
# a client/server pair under random operations
# ----------------------------------------------------------------------
#: Streams the server opens per scenario: the request plus its pushes.
MAX_PUSHES = 5

operation = st.one_of(
    st.tuples(
        st.just("body"),
        st.integers(0, MAX_PUSHES),
        st.sampled_from([0, 0, 1, 700, 1_400, 1_401, 5_000, 30_000]),
        st.booleans(),
    ),
    st.tuples(st.just("stream_update"), st.integers(0, MAX_PUSHES), st.integers(1, 20_000)),
    st.tuples(st.just("connection_update"), st.integers(1, 40_000)),
    st.tuples(st.just("initial_window"), st.sampled_from([0, 1, 900, 4_000, 65_535, 1 << 20])),
    st.tuples(st.just("client_reset"), st.integers(0, MAX_PUSHES)),
    st.tuples(st.just("server_reset"), st.integers(0, MAX_PUSHES)),
    st.tuples(
        st.just("priority"),
        st.integers(0, MAX_PUSHES),
        st.integers(-1, MAX_PUSHES),
        st.integers(1, 256),
        st.booleans(),
    ),
    st.tuples(
        st.just("pause"),
        st.integers(0, MAX_PUSHES),
        st.one_of(st.none(), st.integers(0, 20_000)),
    ),
    st.tuples(st.just("run"), st.floats(0.1, 80.0)),
)
body = st.tuples(st.sampled_from([0, 1, 1_400, 2_000, 9_000, 30_000, 150_000]), st.booleans())


@given(
    stream_window=st.sampled_from([1_000, 3_000, 16_384, 6 * 1024 * 1024]),
    connection_window=st.sampled_from([1, 1_400, 4_000, 9_000, 65_535, 1 << 20]),
    pushes=st.integers(0, MAX_PUSHES),
    chain=st.booleans(),
    interleave=st.one_of(st.none(), st.integers(0, 6_000)),
    bodies=st.lists(body, min_size=1 + MAX_PUSHES, max_size=1 + MAX_PUSHES),
    operations=st.lists(operation, max_size=40),
)
@settings(max_examples=120, deadline=None)
def test_ready_set_matches_a_rescan_at_every_step(
    stream_window, connection_window, pushes, chain, interleave, bodies, operations
):
    sim, client, server = make_pair(
        client_settings=Settings(initial_window_size=stream_window)
    )
    # The client's start-up WINDOW_UPDATE opened the connection window
    # to 15 MiB; a window that hits zero mid-burst has to be set by hand.
    server._conn_send_window = connection_window
    server.scheduler = CheckingScheduler()
    opened = []

    def on_request(stream_id, headers, priority):
        server.respond(stream_id, [(":status", "200")])
        opened.append(stream_id)
        previous = stream_id
        for index in range(pushes):
            promised = server.push(
                stream_id,
                REQUEST[:-1] + [(":path", f"/pushed-{index}")],
                depends_on=previous if chain else stream_id,
                weight=16 * (index + 1),
            )
            opened.append(promised)
            previous = promised
        if interleave is not None and pushes:
            server.scheduler = CheckingInterleavingScheduler(
                stream_id, interleave, opened[1 : 1 + (pushes + 1) // 2]
            )
            server.scheduler.activate(server)
        for promised in opened[1:]:
            server.respond(promised, [(":status", "200")])
        for opened_id, (size, end_stream) in zip(opened, bodies):
            server.send_body(opened_id, b"a" * size, end_stream=end_stream)

    server.on_request = on_request
    client.request(REQUEST, priority=PriorityData(depends_on=0, weight=256))
    # Long enough for the request to arrive and the first burst to
    # leave, short enough that most bodies are still queued.
    sim.run(until=sim.now + 40.0)
    assert len(opened) == 1 + pushes
    assert_ready_is_fresh(server)

    def stream_id_at(index):
        return opened[index % len(opened)]

    def from_client(frame):
        """Send a control frame and wait for the server to act on it."""
        client._queue_wire(frame.TYPE.name, frame.stream_id, frame.serialize())
        client._pump()
        sim.run(until=sim.now + 40.0)

    for op in operations:
        kind = op[0]
        if kind == "body":
            stream = server.streams[stream_id_at(op[1])]
            if not stream._end_after_queue:
                server.send_body(stream.stream_id, b"b" * op[2], end_stream=op[3])
        # The client's receive windows hold the server to what the client
        # advertised (RFC 7540 §6.9.1), so credit sent by hand is booked
        # as the client's own: it lowers the octets it has yet to credit.
        elif kind == "stream_update":
            stream = client.streams.get(stream_id_at(op[1]))
            # Its PUSH_PROMISE has arrived, and the client has not closed
            # it: a closed stream takes no frame but PRIORITY (§5.1).
            if stream is not None and stream.state < StreamState.CLOSED:
                stream.recv_unacked -= op[2]
                from_client(WindowUpdateFrame(stream_id=stream.stream_id, increment=op[2]))
        elif kind == "connection_update":
            client._conn_recv_unacked -= op[1]
            from_client(WindowUpdateFrame(stream_id=0, increment=op[1]))
        elif kind == "initial_window":
            # The client's capacity only grows: DATA the server sent under
            # a larger value may still be in flight when it shrinks.
            local = client.local_settings._values
            local[INITIAL_WINDOW] = max(local[INITIAL_WINDOW], op[1])
            from_client(SettingsFrame(stream_id=0, settings={INITIAL_WINDOW: op[1]}))
        elif kind == "client_reset":
            if stream_id_at(op[1]) in client.streams:  # its PUSH_PROMISE has arrived
                client.reset_stream(stream_id_at(op[1]), ErrorCode.CANCEL)
        elif kind == "server_reset":
            server.reset_stream(stream_id_at(op[1]))
        elif kind == "priority":
            stream_id = stream_id_at(op[1])
            depends_on = 0 if op[2] < 0 else stream_id_at(op[2])
            if depends_on != stream_id:
                client.send_priority(
                    stream_id, PriorityData(depends_on=depends_on, weight=op[3], exclusive=op[4])
                )
        elif kind == "pause":
            server.pause_stream_at(stream_id_at(op[1]), op[2])
            server._pump()
        else:
            sim.run(until=sim.now + op[1])
        assert_ready_is_fresh(server)
    sim.run()
    assert_ready_is_fresh(server)
    assert_ready_is_fresh(client)


# ----------------------------------------------------------------------
# cost: readiness work grows with the streams served, not their square
# ----------------------------------------------------------------------
def count_sendable_calls(monkeypatch, pushes):
    """``sendable_bytes`` calls to serve one page with ``pushes`` one-frame pushes."""
    calls = [0]
    original = H2Stream.sendable_bytes

    def counting(stream):
        calls[0] += 1
        return original(stream)

    monkeypatch.setattr(H2Stream, "sendable_bytes", counting)
    sim, client, server = make_pair()
    finished = []

    def on_request(stream_id, headers, priority):
        server.respond(stream_id, [(":status", "200")])
        promised, previous = [], stream_id
        for index in range(pushes):
            previous = server.push(
                stream_id, REQUEST[:-1] + [(":path", f"/image-{index}")], depends_on=previous
            )
            promised.append(previous)
        server.send_body(stream_id, b"h" * 4_000, end_stream=True)
        for push_id in promised:
            server.respond(push_id, [(":status", "200")])
            server.send_body(push_id, b"i" * 900, end_stream=True)

    server.on_request = on_request
    client.on_stream_end = finished.append
    client.request(REQUEST, priority=PriorityData(depends_on=0, weight=256))
    sim.run()
    monkeypatch.undo()
    assert len(finished) == 1 + pushes
    return calls[0]


def test_readiness_work_is_linear_in_the_streams_served(monkeypatch):
    small = count_sendable_calls(monkeypatch, 60)
    large = count_sendable_calls(monkeypatch, 120)
    assert large <= 2.2 * small
