"""Tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_at_schedules_absolute(self, sim):
        fired = []
        sim.at(2.5, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 2.5

    def test_after_schedules_relative(self, sim):
        sim.after(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0

    def test_after_is_relative_to_current_time(self, sim):
        times = []
        sim.after(1.0, lambda: sim.after(2.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [3.0]

    def test_scheduling_in_past_raises(self, sim):
        sim.after(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.at(1.0, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.after(-0.1, lambda: None)

    def test_scheduling_at_current_time_allowed(self, sim):
        fired = []
        sim.at(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_args_passed_through(self, sim):
        captured = []
        sim.at(1.0, lambda a, b: captured.append((a, b)), "a", 2)
        sim.run()
        assert captured == [("a", 2)]


class TestOrdering:
    def test_time_order(self, sim):
        order = []
        sim.at(3.0, order.append, 3)
        sim.at(1.0, order.append, 1)
        sim.at(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_fifo_for_simultaneous_events(self, sim):
        order = []
        for i in range(10):
            sim.at(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_event_scheduled_during_run_executes(self, sim):
        order = []
        sim.at(1.0, lambda: sim.at(1.5, order.append, "inner"))
        sim.at(2.0, order.append, "outer")
        sim.run()
        assert order == ["inner", "outer"]

    def test_events_executed_counter(self, sim):
        for i in range(5):
            sim.at(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestRunUntil:
    def test_stops_at_boundary(self, sim):
        fired = []
        sim.at(1.0, fired.append, 1)
        sim.at(5.0, fired.append, 5)
        sim.run_until(3.0)
        assert fired == [1]
        assert sim.now == 3.0

    def test_boundary_event_included(self, sim):
        fired = []
        sim.at(3.0, fired.append, 3)
        sim.run_until(3.0)
        assert fired == [3]

    def test_clock_advances_even_with_empty_queue(self, sim):
        sim.run_until(7.0)
        assert sim.now == 7.0

    def test_resume_after_run_until(self, sim):
        fired = []
        sim.at(5.0, fired.append, 5)
        sim.run_until(3.0)
        sim.run_until(10.0)
        assert fired == [5]

    def test_run_until_past_raises(self, sim):
        sim.run_until(5.0)
        with pytest.raises(SchedulingError):
            sim.run_until(1.0)

    def test_not_reentrant(self, sim):
        def recurse():
            sim.run_until(10.0)

        sim.at(1.0, recurse)
        with pytest.raises(SchedulingError):
            sim.run_until(5.0)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.at(1.0, fired.append, 1)
        assert handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_returns_false_after_firing(self, sim):
        handle = sim.at(1.0, lambda: None)
        sim.run()
        assert handle.fired
        assert not handle.cancel()

    def test_double_cancel(self, sim):
        handle = sim.at(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()
        assert handle.cancelled

    def test_cancelled_events_not_counted(self, sim):
        sim.at(1.0, lambda: None).cancel()
        sim.at(2.0, lambda: None)
        sim.run()
        assert sim.events_executed == 1

    def test_pending_property(self, sim):
        handle = sim.at(1.0, lambda: None)
        assert handle.pending
        sim.run()
        assert not handle.pending

    def test_peek_time_skips_cancelled(self, sim):
        first = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_time_empty(self, sim):
        assert sim.peek_time() is None

    def test_step_executes_single_event(self, sim):
        fired = []
        sim.at(1.0, fired.append, 1)
        sim.at(2.0, fired.append, 2)
        assert sim.step()
        assert fired == [1]
        assert sim.step()
        assert not sim.step()


class TestDeterminism:
    def test_identical_runs_execute_identically(self):
        def run() -> list:
            sim = Simulator()
            order = []
            for i in range(50):
                sim.at((i * 7919) % 13 * 0.5, order.append, i)
            sim.run()
            return order

        assert run() == run()

    def test_long_self_rescheduling_chain_completes(self):
        sim = Simulator()
        fired = [0]

        def tick():
            fired[0] += 1
            if fired[0] < 20_000:
                sim.after(0.001, tick)

        sim.after(0.0, tick)
        sim.run()
        assert fired[0] == 20_000
        assert sim.events_executed == 20_000
