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
