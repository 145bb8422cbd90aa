"""Core-vs-oracle equivalence: identical traces on random programs.

:class:`repro.sim.Simulator` (a heap that holds every heap-only event
and the front of every timer lane, the rest of each lane waiting in a
monotonic deque) claims the dispatch order of a single heap.  The
reference model in ``tests/support/heap_oracle.py`` *is* that single
heap, and every observable must be bit-identical between the two:
dispatch order (time, priority, seq), clock advancement, cancellation
semantics, and stop/until interactions.  These properties drive both
with the same randomly generated program — schedules with inline
arguments, lane schedules over many lanes, cancellations of entries
that wait in a deque, sit in the heap as a lane front or already ran,
steps taken mid-run, stops, horizon-bounded runs — and require the
execution traces to be *exactly* equal (float equality, not
approximate: both perform the same arithmetic or one is wrong).

The frame parser gets the same treatment: ``FrameReader.feed`` must
surface, under any segmentation of the wire bytes, exactly the frames
a fresh reader parses from each frame's own octets, one at a time.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.h2.constants import Flag
from repro.h2.frames import (
    DataFrame,
    FrameReader,
    HeadersFrame,
    PingFrame,
    RstStreamFrame,
    SettingsFrame,
    WindowUpdateFrame,
)
from repro.sim import CANCELLED, NO_ARG, POPPED, TIME, Simulator
from tests.support.heap_oracle import HeapSimulator


# ----------------------------------------------------------------------
# random scheduling programs
# ----------------------------------------------------------------------
#: More lanes than a page load opens (4 per connection + 2 links ≈ 49).
LANES = 80

#: Times and delays: a few round values so that ties (broken by
#: priority, then seq) and monotone lane deadlines are common, plus
#: arbitrary floats so that out-of-order lane deadlines are too.
_ms = st.one_of(
    st.sampled_from([0.0, 1.0, 5.0, 5.0, 20.0, 50.0]),
    st.floats(0, 100, allow_nan=False, allow_infinity=False),
)
#: Most lane traffic on three lanes (deques grow successors), the rest
#: spread over all of them (many fronts interleave in the heap).
_lane = st.one_of(st.integers(0, 2), st.integers(0, LANES - 1))

#: One program step; interpreted identically against core and oracle.
_op = st.one_of(
    st.tuples(st.just("schedule"), _ms, st.integers(0, 20), st.integers(0, 2)),
    st.tuples(st.just("lane"), _lane, _ms, st.integers(0, 2)),
    st.tuples(st.just("lane_abs"), _lane, _ms),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    st.tuples(st.just("cancel_front"), _lane),
    st.tuples(st.just("cancel_ran"), st.integers(0, 200)),
    st.tuples(st.just("stop")),
)
#: A step runs before the run starts (``None``) or mid-run at that time.
_step = st.tuples(st.one_of(st.none(), _ms), _op)


def _interpret(sim, steps, until):
    """Run one program; return its full observable trace."""
    lanes = [sim.timer_lane() for _ in range(LANES)]
    by_lane = [[] for _ in range(LANES)]
    trace = []
    entries = []

    def record(*tag):
        trace.append((sim.now, tag))

    def inline(kind, index, nargs):
        """A callback plus the ``nargs`` inline arguments it records."""
        if nargs == 0:
            return (lambda: record(kind, index),)
        if nargs == 1:
            return (lambda a: record(kind, index, a), index)
        return (lambda a, b: record(kind, index, a, b), index, -index)

    def do(index, op):
        kind = op[0]
        if kind == "schedule":
            entries.append(
                sim.schedule(op[1], *inline("s", index, op[3]), priority=op[2])
            )
        elif kind == "lane":
            # Arbitrary delays exercise the monotone append, the heap
            # fallback, and a deadline landing behind a cancelled front.
            entry = lanes[op[1]].schedule(op[2], *inline("l", index, op[3]))
            entries.append(entry)
            by_lane[op[1]].append(entry)
        elif kind == "lane_abs":
            entry = lanes[op[1]].schedule_abs(sim.now + op[2], *inline("la", index, 1))
            entries.append(entry)
            by_lane[op[1]].append(entry)
        elif kind == "cancel":
            # Whatever state the entry is in: waiting, a lane front in
            # the heap, cancelled already, or long since run.
            if entries:
                entries[op[1] % len(entries)][CANCELLED] = True
        elif kind == "cancel_front":
            # The lane's earliest live entry: the one the heap holds.
            live = [e for e in by_lane[op[1]] if not e[CANCELLED] and not e[POPPED]]
            if live:
                min(live)[CANCELLED] = True
        elif kind == "cancel_ran":
            ran = [e for e in entries if e[POPPED] and not e[CANCELLED]]
            if ran:
                ran[op[1] % len(ran)][CANCELLED] = True
        elif kind == "stop":
            sim.stop()

    for index, (start, op) in enumerate(steps):
        if start is None:
            do(index, op)
        else:
            sim.schedule(start, do, index, op)
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
        # A cancelled entry may leave the core's queue earlier than the
        # oracle's heap; a live one is popped exactly when it runs.
        [(e[TIME], e[CANCELLED], e[CANCELLED] or e[POPPED]) for e in entries],
    )


@given(
    steps=st.lists(_step, min_size=0, max_size=80),
    until=st.one_of(
        st.none(), st.floats(0, 120, allow_nan=False, allow_infinity=False)
    ),
)
@settings(max_examples=300, deadline=None)
# A stop() after which only a cancelled lane event is left: the core has
# already peeled the tombstone, the oracle's heap still holds it; both
# must leave the clock at the stopping event.
@example(
    steps=[(None, ("lane", 0, 0.0, 0)), (0.0, ("cancel", 0)), (0.0, ("stop",))],
    until=1.0,
)
# A lane front cancelled while it sits in the heap, with a live
# successor behind it and a cancelled one between them.
@example(
    steps=[
        (None, ("lane", 0, 5.0, 0)),
        (None, ("lane", 0, 6.0, 1)),
        (None, ("lane", 0, 7.0, 2)),
        (1.0, ("cancel_front", 0)),
        (1.0, ("cancel", 1)),
    ],
    until=None,
)
# An out-of-order deadline landing behind a tombstoned front: it must
# run from the heap at its own time, not wait for the lane.
@example(
    steps=[
        (None, ("lane", 0, 50.0, 0)),
        (None, ("cancel_front", 0)),
        (1.0, ("lane", 0, 5.0, 0)),
        (2.0, ("lane_abs", 0, 60.0)),
    ],
    until=None,
)
# Cancelled after it ran, then the same lane is used again.
@example(
    steps=[
        (None, ("lane", 0, 1.0, 0)),
        (5.0, ("cancel_ran", 0)),
        (5.0, ("lane", 0, 1.0, 0)),
    ],
    until=5.5,
)
def test_random_programs_trace_identically(steps, until):
    assert _interpret(Simulator(), steps, until) == _interpret(
        HeapSimulator(), steps, until
    )


@given(
    steps=st.lists(
        st.tuples(
            st.integers(0, LANES - 1),
            st.sampled_from([0.0, 0.5, 5.0, 5.0, 200.0]),  # delay
            st.sampled_from([0.0, 0.0, 0.25, 3.0]),  # clock advance before it
            st.sampled_from(["keep", "keep", "cancel", "cancel_front"]),
        ),
        min_size=LANES,
        max_size=400,
    )
)
@settings(max_examples=60, deadline=None)
def test_many_lanes_interleave_in_oracle_order(steps):
    """A page load's shape: scores of lanes, each with a fixed timeout,
    armed as the clock advances, most timers cancelled before they fire."""

    def run(sim):
        lanes = [sim.timer_lane() for _ in range(LANES)]
        by_lane = [[] for _ in range(LANES)]
        fired = []
        clock = 0.0
        for index, (lane, delay, advance, fate) in enumerate(steps):
            clock += advance

            def arm(index=index, lane=lane, delay=delay, fate=fate):
                entry = lanes[lane].schedule(delay, fired.append, (sim.now, index))
                waiting = [e for e in by_lane[lane] if not e[CANCELLED] and not e[POPPED]]
                by_lane[lane].append(entry)
                if fate == "cancel":
                    entry[CANCELLED] = True
                elif fate == "cancel_front" and waiting:
                    min(waiting)[CANCELLED] = True

            sim.schedule(clock, arm)
        sim.run(until=clock / 2)
        mid = (len(fired), sim.now, sim.pending_events())
        sim.run()
        return fired, mid, sim.now, sim.events_processed, sim.pending_events()

    assert run(Simulator()) == run(HeapSimulator())


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
        entries = [
            lane.schedule(delay, lambda i=index: fired.append(i))
            for index, delay in enumerate(delays)
        ]
        for index, entry in enumerate(entries):
            if index % cancel_every == 0:
                entry[CANCELLED] = True
        sim.run()
        return fired, sim.now, sim.pending_events()

    assert run(Simulator()) == run(HeapSimulator())


# ----------------------------------------------------------------------
# deterministic lane/engine unit properties
# ----------------------------------------------------------------------
def test_lane_timer_restart_and_cancel():
    """A restartable timer is an attribute holding the armed entry."""
    for sim in (Simulator(), HeapSimulator()):
        lane = sim.timer_lane()
        fired = []
        timer = lane.schedule(10.0, lambda: fired.append(sim.now))
        timer[CANCELLED] = True  # restart: the new arming supersedes the first
        timer = lane.schedule(20.0, lambda: fired.append(sim.now))
        assert not timer[CANCELLED] and not timer[POPPED]
        sim.run()
        assert fired == [20.0]
        assert timer[POPPED]
        timer = lane.schedule(5.0, lambda: fired.append(sim.now))
        timer[CANCELLED] = True
        sim.run()
        assert fired == [20.0]
        assert sim.now == 20.0  # a cancelled timer does not move the clock


def test_lane_handle_cancel_is_tombstoned_not_scanned():
    sim = Simulator()
    lane = sim.timer_lane()
    entries = [lane.schedule(float(i), lambda: None) for i in range(100)]
    assert sim.pending_events() == 100
    for entry in entries[10:]:
        entry[CANCELLED] = True
    # O(1) cancel: nothing is removed until the run loop reaches it.
    assert len(lane) == 100
    assert sim.pending_events() == 10
    sim.run()
    assert sim.events_processed == 10
    assert len(lane) == 0
    # Every entry left the queue, and the tombstones never moved the clock.
    assert all(entry[POPPED] for entry in entries)
    assert sim.now == 9.0


def test_only_a_lane_front_is_in_the_heap():
    """The invariant the run loop relies on, spelled out slot by slot."""
    sim = Simulator()
    lane = sim.timer_lane()
    front = lane.schedule(10.0, lambda: None)
    behind = lane.schedule(20.0, lambda: None)
    early = lane.schedule(5.0, lambda: None)  # out of order: heap-only
    assert (front[8], behind[8], early[8]) == (lane._dq, lane._dq, None)
    assert sorted(sim._queue) == [early, front]
    assert len(lane) == 2
    front[CANCELLED] = True
    late_early = lane.schedule(7.0, lambda: None)  # behind a tombstoned front
    assert late_early[8] is None
    fired = []
    behind[3] = lambda: fired.append(sim.now)
    sim.run(until=15.0)
    # The tombstone was peeled at its turn and its successor promoted.
    assert front[POPPED] and sim._queue == [behind] and len(lane) == 1
    sim.run()
    assert fired == [20.0] and sim.events_processed == 3
    assert sim._queue == [] and len(lane) == 0


def test_lane_abs_refuses_past_deadlines():
    for sim in (Simulator(), HeapSimulator()):
        lane = sim.timer_lane()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            lane.schedule_abs(sim.now - 1.0, lambda: None)


def test_no_arg_sentinel_not_leaked_to_callbacks():
    for sim in (Simulator(), HeapSimulator()):
        lane = sim.timer_lane()
        seen = []
        sim.schedule(1.0, lambda *args: seen.append(args))
        sim.schedule(2.0, lambda *args: seen.append(args), 7)
        sim.schedule(3.0, lambda *args: seen.append(args), 7, 8)
        lane.schedule(4.0, lambda *args: seen.append(args))
        lane.schedule(5.0, lambda *args: seen.append(args), None)
        lane.schedule_abs(6.0, lambda *args: seen.append(args), 7, None)
        sim.run()
        assert seen == [(), (7,), (7, 8), (), (None,), (7, None)]
        assert NO_ARG not in [arg for args in seen for arg in args]


# ----------------------------------------------------------------------
# frame parser: incremental feed vs one frame at a time
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
def test_feed_matches_one_frame_at_a_time_under_any_chunking(frames, chunk_seed):
    import random

    wire = b"".join(frame.serialize() for frame in frames)
    expected = [frame for each in frames for frame in FrameReader().feed(each.serialize())]
    assert len(expected) == len(frames)

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

    This is the one whole-system check that the lanes never reorder an
    event: loss, jitter and reordering exercise
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
