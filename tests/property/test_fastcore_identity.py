"""Core-vs-oracle equivalence: identical traces on random programs.

:class:`repro.sim.Simulator` (a heap plus monotonic timer lanes and
no-handle scheduling) claims the dispatch order of a single heap.  The
reference model in ``tests/support/heap_oracle.py`` *is* that single
heap, and every observable must be bit-identical between the two:
dispatch order (time, priority, seq), clock advancement, cancellation
semantics, and stop/until interactions.  These properties drive both
with the same randomly generated program — schedules, lane timers,
cancellations, nested scheduling, stops, horizon-bounded runs — and
require the execution traces to be *exactly* equal (float equality,
not approximate: both perform the same arithmetic or one is wrong).

The frame parser gets the same treatment: ``FrameReader.feed`` must
surface, under any segmentation of the wire bytes, exactly the frames
the one-at-a-time ``parse_frame`` reference reads from the whole wire.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.h2.constants import Flag
from repro.h2.frames import (
    DataFrame,
    FrameReader,
    HeadersFrame,
    parse_frame,
    PingFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
)
from repro.sim import Simulator
from repro.sim.events import _NO_ARG
from tests.support.heap_oracle import HeapSimulator


# ----------------------------------------------------------------------
# random scheduling programs
# ----------------------------------------------------------------------
#: One program step; interpreted identically against core and oracle.
_op = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.floats(0, 100, allow_nan=False, allow_infinity=False),
        st.integers(0, 20),
    ),
    st.tuples(
        st.just("call"),
        st.floats(0, 100, allow_nan=False, allow_infinity=False),
        st.integers(0, 2),  # inline argument count
    ),
    st.tuples(
        st.just("lane"),
        st.integers(0, 2),  # lane index
        st.floats(0, 100, allow_nan=False, allow_infinity=False),
    ),
    st.tuples(
        st.just("lane_abs"),
        st.integers(0, 2),
        st.floats(0, 100, allow_nan=False, allow_infinity=False),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    st.tuples(
        st.just("nested"),
        st.floats(0, 50, allow_nan=False, allow_infinity=False),
        st.floats(0, 50, allow_nan=False, allow_infinity=False),
    ),
    st.tuples(
        st.just("stop_at"),
        st.floats(0, 100, allow_nan=False, allow_infinity=False),
    ),
    st.tuples(
        st.just("cancel_later"),
        st.floats(0, 100, allow_nan=False, allow_infinity=False),
        st.integers(0, 200),
    ),
)


def _interpret(sim, ops, until):
    """Run one program; return its full observable trace."""
    lanes = [sim.timer_lane() for _ in range(3)]
    trace = []
    handles = []

    def record(tag):
        trace.append((sim.now, tag))

    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "schedule":
            handles.append(
                sim.schedule(op[1], lambda i=index: record(("s", i)), priority=op[2])
            )
        elif kind == "call":
            if op[2] == 0:
                sim.schedule_call(op[1], lambda i=index: record(("c0", i)))
            elif op[2] == 1:
                sim.schedule_call(op[1], lambda a, i=index: record(("c1", i, a)), index)
            else:
                sim.schedule_call(
                    op[1], lambda a, b, i=index: record(("c2", i, a, b)), index, -index
                )
        elif kind == "lane":
            # Random delays exercise both the monotone append and the
            # out-of-order heap fallback inside the lane.
            handles.append(
                lanes[op[1]].schedule(op[2], lambda i=index: record(("l", i)))
            )
        elif kind == "lane_abs":
            when = sim.now + op[2]
            lanes[op[1]].schedule_call_abs(
                when, lambda a, i=index: record(("la", i, a)), index
            )
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "nested":
            def outer(i=index, child=op[2]):
                record(("n", i))
                sim.schedule_call(child, lambda: record(("nc", i)))

            sim.schedule_call(op[1], outer)
        elif kind == "stop_at":
            sim.schedule(op[1], sim.stop)
        elif kind == "cancel_later":
            def canceller(i=op[2]):
                if handles:
                    handles[i % len(handles)].cancel()

            sim.schedule_call(op[1], canceller)
    end = sim.run(until=until)
    # A second run continues where the first left off (post-stop or
    # post-horizon resumption must behave identically too).
    end2 = sim.run()
    return (
        trace,
        end,
        end2,
        sim.now,
        sim.events_processed,
        sim.pending_events(),
    )


@given(
    ops=st.lists(_op, min_size=0, max_size=60),
    until=st.one_of(
        st.none(), st.floats(0, 120, allow_nan=False, allow_infinity=False)
    ),
)
@settings(max_examples=200, deadline=None)
# A stop() after which only a cancelled lane event is left: the core has
# already peeled the tombstone, the oracle's heap still holds it; both
# must leave the clock at the stopping event.
@example(ops=[("cancel_later", 0.0, 0), ("stop_at", 0.0), ("lane", 0, 0.0)], until=1.0)
def test_random_programs_trace_identically(ops, until):
    assert _interpret(Simulator(), ops, until) == _interpret(HeapSimulator(), ops, until)


@given(delays=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_lane_only_programs_dispatch_in_oracle_order(delays):
    """Arbitrary (also non-monotone) lane deadlines keep global order."""

    def run(sim):
        lane = sim.timer_lane()
        fired = []
        for index, delay in enumerate(delays):
            lane.schedule(delay, lambda i=index: fired.append((sim.now, i)))
        sim.run()
        return fired

    assert run(Simulator()) == run(HeapSimulator())


@given(
    delays=st.lists(st.floats(0, 50, allow_nan=False), min_size=2, max_size=30),
    cancel_every=st.integers(2, 5),
)
@settings(max_examples=100, deadline=None)
def test_lane_cancellation_matches_oracle(delays, cancel_every):
    def run(sim):
        lane = sim.timer_lane()
        fired = []
        handles = [
            lane.schedule(delay, lambda i=index: fired.append(i))
            for index, delay in enumerate(delays)
        ]
        for index, handle in enumerate(handles):
            if index % cancel_every == 0:
                handle.cancel()
        sim.run()
        return fired, sim.now, sim.pending_events()

    assert run(Simulator()) == run(HeapSimulator())


# ----------------------------------------------------------------------
# deterministic lane/engine unit properties
# ----------------------------------------------------------------------
def test_lane_timer_restart_and_cancel():
    for sim in (Simulator(), HeapSimulator()):
        lane = sim.timer_lane()
        fired = []
        timer = lane.timer(lambda: fired.append(sim.now))
        timer.start(10.0)
        timer.start(20.0)  # restart supersedes the first arming
        assert timer.armed
        sim.run()
        assert fired == [20.0]
        assert not timer.armed
        timer.start(5.0)
        timer.cancel()
        sim.run()
        assert fired == [20.0]


def test_lane_handle_cancel_is_tombstoned_not_scanned():
    sim = Simulator()
    lane = sim.timer_lane()
    handles = [lane.schedule(float(i), lambda: None) for i in range(100)]
    assert sim.pending_events() == 100
    for handle in handles[10:]:
        handle.cancel()
    # O(1) cancel: nothing is removed until the run loop reaches it.
    assert len(lane) == 100
    assert sim.pending_events() == 10
    sim.run()
    assert sim.events_processed == 10
    assert len(lane) == 0


def test_lane_abs_refuses_past_deadlines():
    import pytest

    from repro.errors import SimulationError

    sim = Simulator()
    lane = sim.timer_lane()
    sim.schedule_call(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        lane.schedule_call_abs(sim.now - 1.0, lambda: None)


def test_no_arg_sentinel_not_leaked_to_callbacks():
    sim = Simulator()
    seen = []
    sim.schedule_call(1.0, lambda *args: seen.append(args))
    sim.schedule_call(2.0, lambda *args: seen.append(args), 7)
    sim.schedule_call(3.0, lambda *args: seen.append(args), 7, 8)
    sim.run()
    assert seen == [(), (7,), (7, 8)]
    assert _NO_ARG not in [arg for args in seen for arg in args]


# ----------------------------------------------------------------------
# frame parser: incremental feed vs the parse_frame reference
# ----------------------------------------------------------------------
def _frame_strategy():
    payload = st.binary(min_size=0, max_size=64)
    return st.one_of(
        st.builds(
            DataFrame,
            stream_id=st.integers(1, 31).map(lambda n: n * 2 - 1),
            data=payload,
            flags=st.sampled_from([Flag.NONE, Flag.END_STREAM]),
        ),
        st.builds(
            DataFrame,
            stream_id=st.integers(1, 31).map(lambda n: n * 2 - 1),
            data=st.binary(min_size=0, max_size=32),
            pad_length=st.integers(1, 8),
        ),
        st.builds(
            HeadersFrame,
            stream_id=st.integers(1, 31).map(lambda n: n * 2 - 1),
            header_block=payload,
            flags=st.sampled_from(
                [Flag.END_HEADERS, Flag.END_HEADERS | Flag.END_STREAM]
            ),
        ),
        st.builds(WindowUpdateFrame, stream_id=st.integers(0, 5), increment=st.integers(1, 2**31 - 1)),
        st.builds(
            PingFrame, stream_id=st.just(0), opaque=st.binary(min_size=8, max_size=8)
        ),
        st.builds(RstStreamFrame, stream_id=st.integers(1, 31), error_code=st.integers(0, 13)),
        st.just(SettingsFrame(stream_id=0, settings={})),
    )


@given(
    frames=st.lists(_frame_strategy(), min_size=0, max_size=20),
    chunk_seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_feed_matches_parse_frame_under_any_chunking(frames, chunk_seed):
    import random

    wire = b"".join(frame.serialize() for frame in frames)
    expected = []
    rest = wire
    while rest:
        frame, consumed = parse_frame(rest)
        expected.append(frame)
        rest = rest[consumed:]

    rng = random.Random(chunk_seed)
    reader = FrameReader()
    got = []
    offset = 0
    while offset < len(wire):
        size = rng.randint(1, 17)
        got += reader.feed(wire[offset : offset + size])
        offset += size
    assert got == expected
    assert reader.buffered_bytes == 0


# ----------------------------------------------------------------------
# end-to-end: whole replays on the core and on the oracle
# ----------------------------------------------------------------------
def _on_oracle(monkeypatch):
    """Every replay built from here on runs on the heap oracle."""
    monkeypatch.setattr("repro.replay.testbed.new_simulator", HeapSimulator)


def test_small_replay_identical_under_both_cores(monkeypatch):
    """Counters no result carries (events, frames) agree as well."""
    from repro.html.builder import build_site
    from repro.netsim.conditions import DSL_TESTBED
    from repro.replay.testbed import ReplayTestbed
    from repro.sites.corpus import TOP_100_PROFILE, generate_corpus
    from repro.strategies.simple import NoPushStrategy

    site = generate_corpus(TOP_100_PROFILE, 1, seed=2018)[0]
    built = build_site(site.spec)

    def load():
        testbed = ReplayTestbed(
            built=built, conditions=DSL_TESTBED, strategy=NoPushStrategy()
        )
        seen = {}

        def probe(view):
            seen["sim"] = type(view.sim)
            seen["events"] = view.events_processed
            seen["frames"] = view.server_frames

        result = testbed.run(seed=7, probe=probe)
        return (
            seen["sim"],
            result.plt_ms,
            result.downlink_bytes,
            result.uplink_bytes,
            seen["events"],
            seen["frames"],
        )

    core = load()
    _on_oracle(monkeypatch)
    oracle = load()
    assert (core[0], oracle[0]) == (Simulator, HeapSimulator)
    assert core[1:] == oracle[1:]


def test_full_replay_matches_heap_oracle(monkeypatch):
    """The golden fig-3 grid, a lossy Reno cell and a lossy QUIC cell
    replayed on the heap oracle fingerprint exactly as on the core.

    This is the one whole-system check that the lanes and the no-handle
    paths never reorder an event: loss, jitter and reordering exercise
    the out-of-order lane fallback, RTO/delayed-ACK cancellation and the
    QUIC recovery timers, none of which the clean grid reaches.
    """
    import json
    from dataclasses import replace

    from repro.experiments.engine import ExperimentEngine, Grid
    from repro.experiments.engine.fingerprint import fingerprint
    from repro.netsim.conditions import LOSSY_DSL, FixedConditions
    from repro.sites.corpus import TOP_100_PROFILE, generate_corpus
    from repro.strategies.simple import PushAllStrategy
    from tests.experiments.test_determinism_guard import GOLDEN_PATH, _evaluate

    spec = generate_corpus(TOP_100_PROFILE, 1, seed=2018)[0].spec

    def lossy_fingerprints():
        grid = Grid(name="oracle-cross-check")
        for label, conditions in (
            ("lossy-reno", LOSSY_DSL),
            ("lossy-quic", replace(LOSSY_DSL, transport="quic")),
        ):
            grid.add(
                spec,
                PushAllStrategy(),
                runs=2,
                seed_base=11,
                conditions=FixedConditions(conditions),
                label=label,
            )
        results = ExperimentEngine(cache=None).run(grid)
        return [fingerprint(result) for result in results]

    assert LOSSY_DSL.congestion_control == "reno"
    on_core = lossy_fingerprints()
    _on_oracle(monkeypatch)
    assert lossy_fingerprints() == on_core
    assert _evaluate() == json.loads(GOLDEN_PATH.read_text())


def test_new_simulator_builds_the_simulator():
    from repro.sim import new_simulator

    assert type(new_simulator()) is Simulator
