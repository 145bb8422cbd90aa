"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import CANCELLED, POPPED, TIME, Simulator


class TestSimulator:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_runs_events_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(12.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.5]
        assert sim.now == 12.5

    def test_same_time_events_run_in_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(5.0, lambda l=label: order.append(l))
        sim.run()
        assert order == list("abcde")

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("low"), priority=20)
        sim.schedule(5.0, lambda: order.append("high"), priority=1)
        sim.run()
        assert order == ["high", "low"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        # Absolute deadlines belong to lanes, and are taken as given:
        # 0.9 scheduled at now = 0.2 as a delay would land one ulp away.
        sim = Simulator()
        lane = sim.timer_lane()
        seen = []
        sim.schedule(0.2, lambda: lane.schedule_abs(0.9, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [0.9]
        assert 0.9 - 0.2 + 0.2 != 0.9

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        seen = []

        def first():
            sim.schedule(5, lambda: seen.append(sim.now))

        sim.schedule(10, first)
        sim.run()
        assert seen == [15.0]

    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: seen.append("early"))
        sim.schedule(100, lambda: seen.append("late"))
        sim.run(until=50)
        assert seen == ["early"]
        assert sim.now == 50.0

    def test_run_after_until_continues(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append("late"))
        sim.run(until=50)
        sim.run()
        assert seen == ["late"]

    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        seen = []
        entry = sim.schedule(10, lambda: seen.append("x"))
        assert (entry[TIME], entry[CANCELLED], entry[POPPED]) == (10.0, False, False)
        entry[CANCELLED] = True
        sim.run()
        assert seen == []
        assert entry[CANCELLED] and entry[POPPED]

    def test_stop_ends_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: (seen.append("a"), sim.stop()))
        sim.schedule(20, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a"]

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1, reenter)
        sim.run()

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: sim.call_soon(lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [10.0]

    def test_pending_events_counts_live_events(self):
        sim = Simulator()
        entry = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.pending_events() == 2
        entry[CANCELLED] = True
        assert sim.pending_events() == 1

    def test_pending_events_counter_survives_edge_cases(self):
        sim = Simulator()
        entry = sim.schedule(10, lambda: None)
        # Double-cancel must only count once.
        entry[CANCELLED] = True
        entry[CANCELLED] = True
        assert sim.pending_events() == 0
        later = sim.schedule(30, lambda: None)
        sim.schedule(20, lambda: None)
        sim.run(until=25)
        assert sim.pending_events() == 1
        # Cancelling after the event already ran is a no-op.
        ran = sim.schedule(1, lambda: None)
        sim.run(until=28)
        assert ran[POPPED]
        ran[CANCELLED] = True
        assert sim.pending_events() == 1
        later[CANCELLED] = True
        assert sim.pending_events() == 0
        sim.run()
        assert sim.pending_events() == 0

    def test_determinism_across_instances(self):
        def run_once():
            sim = Simulator()
            trace = []
            for i in range(50):
                sim.schedule(i * 0.7 % 13, lambda i=i: trace.append(i))
            sim.run()
            return trace

        assert run_once() == run_once()


# ----------------------------------------------------------------------
# the cyclic collector is paused for a run, then restored
# ----------------------------------------------------------------------
def _drained(sim):
    sim.schedule(1, lambda: None)
    sim.run()


def _stopped(sim):
    sim.schedule(1, sim.stop)
    sim.schedule(2, lambda: None)
    sim.run()


def _until(sim):
    sim.schedule(10, lambda: None)
    sim.run(until=5)


def _raising(sim):
    def boom():
        raise RuntimeError("model bug")

    sim.schedule(1, boom)
    with pytest.raises(RuntimeError):
        sim.run()


def _runaway(sim):
    def again():
        sim.schedule(1, again)

    sim.schedule(1, again)
    with pytest.raises(SimulationError):
        sim.run(max_events=10)


_ENDINGS = [_drained, _stopped, _until, _raising, _runaway]


@pytest.fixture
def restore_gc():
    import gc

    enabled = gc.isenabled()
    try:
        yield gc
    finally:
        (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("ending", _ENDINGS, ids=lambda f: f.__name__.strip("_"))
def test_run_pauses_then_restores_an_enabled_collector(ending, restore_gc):
    gc = restore_gc
    gc.enable()
    sim = Simulator()
    during = []
    sim.schedule(0, lambda: during.append(gc.isenabled()))
    ending(sim)
    assert during == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("ending", _ENDINGS, ids=lambda f: f.__name__.strip("_"))
def test_run_leaves_a_disabled_collector_disabled(ending, restore_gc):
    gc = restore_gc
    gc.disable()
    ending(Simulator())
    assert not gc.isenabled()


def test_release_drops_queued_events_and_keeps_counters():
    sim = Simulator()
    lane = sim.timer_lane()
    ran = []
    sim.schedule(1, ran.append, "ran")
    heap_entry = sim.schedule(50, ran.append, "late")
    lane_entries = [lane.schedule(40 + i, ran.append, i) for i in range(3)]
    sim.run(until=20)
    sim.release()
    assert (ran, sim.events_processed, sim.now) == (["ran"], 1, 20)
    assert sim.pending_events() == 0 and len(lane) == 0
    for entry in [heap_entry] + lane_entries:
        assert entry[3] is None and entry[6] is None
    sim.run()
    assert ran == ["ran"]
