"""Fastcore-vs-oracle equivalence: identical traces on random programs.

The batch-steppable :class:`repro.sim.fastcore.FastSimulator` replaces
the heap-only :class:`repro.sim.events.Simulator` only because every
observable is bit-identical: dispatch order (time, priority, seq),
clock advancement, cancellation semantics, and stop/until interactions.
These properties drive both cores with the same randomly generated
program — schedules, lane timers, cancellations, nested scheduling,
stops, horizon-bounded runs — and require the execution traces to be
*exactly* equal (float equality, not approximate: the cores perform the
same arithmetic or they are wrong).

The frame parser gets the same treatment: ``FrameReader.feed`` must
surface, under any segmentation of the wire bytes, exactly the frames
the one-at-a-time ``parse_frame`` reference reads from the whole wire.
"""

import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import set_core_mode
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
from repro.sim import FastSimulator, Simulator
from repro.sim.events import _NO_ARG


# ----------------------------------------------------------------------
# random scheduling programs
# ----------------------------------------------------------------------
#: One program step; interpreted identically against both cores.
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
# A stop() after which only a cancelled lane event is left: the fastcore
# has already peeled the tombstone, the oracle's heap still holds it;
# both must leave the clock at the stopping event.
@example(ops=[("cancel_later", 0.0, 0), ("stop_at", 0.0), ("lane", 0, 0.0)], until=1.0)
def test_random_programs_trace_identically(ops, until):
    oracle = _interpret(Simulator(), ops, until)
    fast = _interpret(FastSimulator(), ops, until)
    assert fast == oracle


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

    assert run(FastSimulator()) == run(Simulator())


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

    assert run(FastSimulator()) == run(Simulator())


# ----------------------------------------------------------------------
# deterministic lane/engine unit properties
# ----------------------------------------------------------------------
def test_lane_timer_restart_and_cancel():
    for sim in (FastSimulator(), Simulator()):
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
    sim = FastSimulator()
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

    sim = FastSimulator()
    lane = sim.timer_lane()
    sim.schedule_call(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        lane.schedule_call_abs(sim.now - 1.0, lambda: None)


def test_no_arg_sentinel_not_leaked_to_callbacks():
    sim = FastSimulator()
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
# end-to-end: one replay, both cores, identical result
# ----------------------------------------------------------------------
def test_small_replay_identical_under_both_cores():
    from repro.html.builder import build_site
    from repro.netsim.conditions import DSL_TESTBED
    from repro.replay.testbed import ReplayTestbed
    from repro.sites.corpus import TOP_100_PROFILE, generate_corpus
    from repro.strategies.simple import NoPushStrategy

    site = generate_corpus(TOP_100_PROFILE, 1, seed=2018)[0]
    built = build_site(site.spec)

    def load(mode):
        set_core_mode(mode)
        try:
            testbed = ReplayTestbed(
                built=built, conditions=DSL_TESTBED, strategy=NoPushStrategy()
            )
            seen = {}

            def probe(view):
                seen["events"] = view.events_processed
                seen["frames"] = view.server_frames

            result = testbed.run(seed=7, probe=probe)
            return (
                result.plt_ms,
                result.downlink_bytes,
                result.uplink_bytes,
                seen["events"],
                seen["frames"],
            )
        finally:
            set_core_mode(None)

    assert load("fast") == load("python")


def test_repro_core_env_selects_simulator_class():
    from repro.sim import new_simulator

    saved = os.environ.get("REPRO_CORE")
    try:
        os.environ["REPRO_CORE"] = "python"
        assert type(new_simulator()) is Simulator
        os.environ["REPRO_CORE"] = "fast"
        assert isinstance(new_simulator(), FastSimulator)
    finally:
        if saved is None:
            os.environ.pop("REPRO_CORE", None)
        else:
            os.environ["REPRO_CORE"] = saved


def test_invalid_repro_core_env_raises_config_error(monkeypatch):
    import pytest

    from repro.errors import ConfigError
    from repro.sim import new_simulator

    monkeypatch.setenv("REPRO_CORE", "pyhton")
    with pytest.raises(ConfigError, match="'pyhton'.*fast, python, compiled"):
        new_simulator()
