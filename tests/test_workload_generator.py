"""Tests for the workload generator (Figure 3 record schedule)."""

from __future__ import annotations

import gc
from typing import Callable, Optional

import pytest

from repro.core.interface import LogManager
from repro.harness.config import SimulationConfig
from repro.harness.simulator import Simulation
from repro.records.data import DataLogRecord
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import TransactionType, WorkloadMix, paper_mix
from repro.workload.transactions import TransactionRun, TxOutcome


class FakeManager(LogManager):
    """Records every call; acks commits after a configurable delay."""

    def __init__(self, sim: Simulator, ack_delay: float = 0.05):
        self.sim = sim
        self.ack_delay = ack_delay
        self.begins: list[tuple[int, Optional[float], float]] = []
        self.updates: list[tuple[int, int, int, int, float]] = []
        self.commits: list[tuple[int, float]] = []
        self.on_kill: Optional[Callable[[int, float], None]] = None
        self._lsn = 0

    def begin(self, tid, expected_lifetime=None):
        self.begins.append((tid, expected_lifetime, self.sim.now))

    def log_update(self, tid, oid, value, size):
        self._lsn += 1
        self.updates.append((tid, oid, value, size, self.sim.now))
        return DataLogRecord(self._lsn, tid, self.sim.now, size, oid, value)

    def request_commit(self, tid, on_ack):
        self.commits.append((tid, self.sim.now))
        self.sim.after(self.ack_delay, lambda: on_ack(tid, self.sim.now))

    def abort(self, tid):
        raise AssertionError("workload never aborts voluntarily")

    def kill(self, tid):
        if self.on_kill is not None:
            self.on_kill(tid, self.sim.now)

    def memory_bytes(self):
        return 0

    def log_blocks_written(self):
        return 0

    def total_log_capacity(self):
        return 0


def single_type_mix(duration=1.0, records=2, size=100) -> WorkloadMix:
    return WorkloadMix([TransactionType("only", 1.0, duration, records, size)])


def make_generator(sim, manager, mix=None, rate=10.0, runtime=2.0, **kwargs):
    generator = WorkloadGenerator(
        sim,
        manager,
        mix or single_type_mix(),
        arrival_rate=rate,
        runtime=runtime,
        rng=SimRng(1),
        num_objects=10_000,
        **kwargs,
    )
    generator.start()
    return generator


class TestSchedule:
    def test_arrival_count_matches_rate(self, sim):
        manager = FakeManager(sim)
        generator = make_generator(sim, manager, rate=10.0, runtime=2.0)
        sim.run_until(5.0)
        # Arrivals at t = 0.0, 0.1, ..., 1.9: exactly rate * runtime.
        assert generator.stats.begun == 20

    def test_begin_written_at_initiation(self, sim):
        manager = FakeManager(sim)
        make_generator(sim, manager, rate=1.0, runtime=0.5)
        sim.run_until(0.0)
        assert manager.begins[0][2] == 0.0

    def test_figure3_record_times(self, sim):
        # T=1s, N=2, eps=1ms: data records at (T-eps)/2 and T-eps.
        manager = FakeManager(sim)
        make_generator(sim, manager, rate=1.0, runtime=0.5)
        sim.run_until(2.0)
        times = [t for (_, _, _, _, t) in manager.updates]
        assert times == pytest.approx([0.4995, 0.999])

    def test_commit_requested_at_duration(self, sim):
        manager = FakeManager(sim)
        make_generator(sim, manager, rate=1.0, runtime=0.5)
        sim.run_until(2.0)
        assert manager.commits == [(1, 1.0)]

    def test_commit_latency_recorded(self, sim):
        manager = FakeManager(sim, ack_delay=0.08)
        generator = make_generator(sim, manager, rate=1.0, runtime=0.5)
        sim.run_until(2.0)
        assert generator.stats.committed == 1
        assert generator.stats.mean_commit_latency == pytest.approx(0.08)

    def test_lifetime_hint_passed_when_enabled(self, sim):
        manager = FakeManager(sim)
        make_generator(sim, manager, rate=1.0, runtime=0.5, lifetime_hints=True)
        sim.run_until(0.0)
        assert manager.begins[0][1] == 1.0

    def test_no_hint_by_default(self, sim):
        manager = FakeManager(sim)
        make_generator(sim, manager, rate=1.0, runtime=0.5)
        sim.run_until(0.0)
        assert manager.begins[0][1] is None


class TestOutcomes:
    def test_acked_updates_collected(self, sim):
        manager = FakeManager(sim)
        generator = make_generator(sim, manager, rate=1.0, runtime=0.5,
                                   collect_truth=True)
        sim.run_until(2.0)
        assert len(generator.acked_updates) == 2
        oids = {u.oid for u in generator.acked_updates}
        assert oids == {oid for (_, oid, _, _, _) in manager.updates}

    def test_collect_truth_disabled(self, sim):
        manager = FakeManager(sim)
        generator = make_generator(sim, manager, rate=1.0, runtime=0.5,
                                   collect_truth=False)
        sim.run_until(2.0)
        assert generator.acked_updates == []

    def test_kill_cancels_future_records(self, sim):
        manager = FakeManager(sim)
        generator = make_generator(sim, manager, rate=1.0, runtime=0.5)
        sim.run_until(0.1)
        manager.kill(1)
        sim.run_until(3.0)
        assert manager.updates == []  # both writes were still pending
        assert manager.commits == []
        assert generator.stats.killed == 1

    def test_kill_releases_oids(self, sim):
        manager = FakeManager(sim)
        generator = make_generator(sim, manager, rate=1.0, runtime=0.5)
        sim.run_until(0.6)  # first data record written
        held_before = generator.oid_chooser.held
        assert held_before == 1
        manager.kill(1)
        assert generator.oid_chooser.held == 0

    def test_unfinished_counted_at_end(self, sim):
        manager = FakeManager(sim)
        generator = make_generator(sim, manager,
                                   mix=single_type_mix(duration=10.0),
                                   rate=1.0, runtime=0.5)
        sim.run_until(1.0)
        generator.finish()
        assert generator.stats.unfinished == 1

    def test_oids_released_after_commit(self, sim):
        manager = FakeManager(sim)
        generator = make_generator(sim, manager, rate=1.0, runtime=0.5)
        sim.run_until(2.0)
        assert generator.oid_chooser.held == 0

    def test_per_type_counters(self, sim):
        manager = FakeManager(sim)
        generator = make_generator(sim, manager, mix=paper_mix(0.5),
                                   rate=20.0, runtime=1.0)
        sim.run_until(15.0)
        begun = generator.stats.per_type_begun
        assert begun.get("short-1s", 0) + begun.get("long-10s", 0) == 20
        assert generator.stats.committed == 20


class TestRunLifetime:
    def test_committed_runs_are_freed_by_refcount(self):
        """A committed run must not sit in a reference cycle with its fired
        event handles: only the cyclic collector could free it then."""
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            simulation = Simulation(
                SimulationConfig.ephemeral((18, 16), recirculation=True, runtime=20.0)
            )
            result = simulation.run()
            assert result.transactions_committed > 0
            del simulation, result
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = sum(
                1
                for obj in gc.garbage
                if isinstance(obj, TransactionRun) and obj.outcome is TxOutcome.COMMITTED
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert leaked == 0, f"{leaked} committed runs needed the cyclic collector"
