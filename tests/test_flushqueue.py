"""Tests for the continuous, locality-aware flush scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flushqueue import FlushScheduler, _DrivePool
from repro.db.database import StableDatabase
from repro.disk.partition import RangePartitioner
from repro.faults.injector import NULL_FAULTS, FaultInjector
from repro.faults.plan import FaultPlan
from repro.harness.config import SimulationConfig
from repro.harness.simulator import Simulation
from repro.obs import ObsConfig
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng

from tests.conftest import ScriptedFaults, make_data_record


def make_scheduler(sim, num_objects=100, drives=2, write_seconds=0.01, completions=None,
                   metrics=NULL_METRICS, faults=NULL_FAULTS):
    sink = completions if completions is not None else []
    db = StableDatabase(num_objects)
    scheduler = FlushScheduler(
        sim,
        db,
        RangePartitioner(num_objects, drives),
        drives,
        write_seconds,
        on_flush_complete=lambda record: sink.append(record),
        metrics=metrics,
        faults=faults,
    )
    return scheduler, db, sink


def live_record(lsn, oid):
    """A data record that still has a cell, so a failed flush requeues it."""
    record = make_data_record(lsn=lsn, oid=oid, value=lsn, timestamp=float(lsn))
    record.cell = object()
    return record


class TestSubmission:
    def test_submit_starts_idle_drive(self, sim):
        scheduler, db, done = make_scheduler(sim)
        scheduler.submit(make_data_record(oid=5, value=9))
        sim.run()
        assert len(done) == 1
        assert db.value_of(5) == 9
        assert scheduler.completed == 1

    def test_backlog_and_peak(self, sim):
        scheduler, _, _ = make_scheduler(sim, drives=1)
        for oid in (1, 2, 3):
            scheduler.submit(make_data_record(lsn=oid, oid=oid))
        # One is in service, two queued.
        assert scheduler.backlog() == 2
        assert scheduler.peak_backlog >= 2
        sim.run()
        assert scheduler.backlog() == 0

    def test_sustained_random_submissions_drain(self, sim):
        import random

        scheduler, _, done = make_scheduler(
            sim, num_objects=1_000_000, drives=10, write_seconds=0.001
        )
        rng = random.Random(1)
        for lsn in range(5_000):
            oid = rng.randrange(1_000_000)
            scheduler.submit(make_data_record(lsn=lsn, oid=oid, value=lsn,
                                              timestamp=lsn * 1e-4))
            if lsn % 50 == 0:
                sim.run_until(sim.now + 0.01)
        sim.run()
        # Resubmitting an oid replaces its stale request, so slightly
        # fewer than 5,000 flushes complete.
        assert scheduler.completed > 4_000
        assert scheduler.completed == len(done)
        assert scheduler.backlog() == 0

    def test_submit_replaces_stale_request(self, sim):
        scheduler, db, _ = make_scheduler(sim, drives=1)
        scheduler.submit(make_data_record(lsn=0, oid=1, value=10))  # in service
        scheduler.submit(make_data_record(lsn=1, oid=2, value=20, timestamp=1.0))
        scheduler.submit(make_data_record(lsn=2, oid=2, value=30, timestamp=2.0))
        assert scheduler.superseded_in_pool == 1
        sim.run()
        assert db.value_of(2) == 30

    def test_cancel_removes_pending(self, sim):
        scheduler, _, done = make_scheduler(sim, drives=1)
        scheduler.submit(make_data_record(lsn=0, oid=1))
        pending = make_data_record(lsn=1, oid=2)
        scheduler.submit(pending)
        assert scheduler.cancel(2) is pending
        sim.run()
        assert len(done) == 1

    def test_cancel_unknown_returns_none(self, sim):
        scheduler, _, _ = make_scheduler(sim)
        assert scheduler.cancel(7) is None


class TestLocalityScheduling:
    def test_nearest_pending_serviced_first(self, sim):
        # One drive over oids [0, 100).  50 goes into service immediately;
        # 10, 55 and 90 queue behind it.  From position 50: 55 (distance 5),
        # then from 55: 90 (35) beats 10 (45), then 10.
        scheduler, _, done = make_scheduler(sim, drives=1)
        scheduler.submit(make_data_record(lsn=0, oid=50))
        for lsn, oid in ((1, 10), (2, 55), (3, 90)):
            scheduler.submit(make_data_record(lsn=lsn, oid=oid))
        sim.run()
        assert [r.oid for r in done] == [50, 55, 90, 10]

    def test_wraparound_distance_used(self, sim):
        # Position 95; candidates 5 (distance 10 via wrap) and 80 (distance 15).
        scheduler, _, done = make_scheduler(sim, drives=1)
        scheduler.submit(make_data_record(lsn=0, oid=95))
        scheduler.submit(make_data_record(lsn=1, oid=80))
        scheduler.submit(make_data_record(lsn=2, oid=5))
        sim.run()
        assert [r.oid for r in done] == [95, 5, 80]

    def test_seek_distance_statistics(self, sim):
        scheduler, _, _ = make_scheduler(sim, drives=1)
        scheduler.submit(make_data_record(lsn=0, oid=10))
        sim.run()
        scheduler.submit(make_data_record(lsn=1, oid=30))
        sim.run()
        assert scheduler.mean_seek_distance() == pytest.approx(20.0)

    def test_oids_route_to_their_drives(self, sim):
        scheduler, _, _ = make_scheduler(sim, num_objects=100, drives=2)
        scheduler.submit(make_data_record(lsn=0, oid=10))  # drive 0
        scheduler.submit(make_data_record(lsn=1, oid=60))  # drive 1
        assert scheduler.drives[0].busy and scheduler.drives[1].busy


class TestDemandFlush:
    def test_demand_flush_installs_immediately(self, sim):
        scheduler, db, done = make_scheduler(sim)
        record = make_data_record(oid=5, value=77)
        scheduler.demand_flush(record)
        assert db.value_of(5) == 77  # before any simulated time passes
        assert scheduler.demand_flushes == 1
        assert done == [record]

    def test_demand_flush_removes_pending_duplicate(self, sim):
        scheduler, _, done = make_scheduler(sim, drives=1)
        scheduler.submit(make_data_record(lsn=0, oid=1))  # occupies the drive
        queued = make_data_record(lsn=1, oid=2)
        scheduler.submit(queued)
        scheduler.demand_flush(queued)
        sim.run()
        # Completion for oid 1 plus the demand flush; oid 2 never re-serviced.
        assert [r.oid for r in done] == [2, 1]

    def test_demand_flush_counts_locality_sample(self, sim):
        scheduler, _, _ = make_scheduler(sim, drives=1)
        scheduler.submit(make_data_record(lsn=0, oid=10))
        sim.run()
        scheduler.demand_flush(make_data_record(lsn=1, oid=40))
        assert scheduler.mean_seek_distance() == pytest.approx(30.0)


class TestBacklogAccounting:
    def test_requeue_raises_peak_and_gauge(self, sim):
        metrics = MetricsRegistry()
        scheduler, db, _ = make_scheduler(
            sim, drives=1, metrics=metrics, faults=ScriptedFaults([True], max_retries=0)
        )
        scheduler.submit(live_record(0, 1))  # in service; its write fails
        scheduler.submit(live_record(1, 2))  # queued: backlog 1
        assert scheduler.peak_backlog == 1
        sim.run_until(0.011)  # the failed write went back to the pool
        assert scheduler.flush_requeues == 1
        assert scheduler.backlog() == 2
        assert scheduler.peak_backlog == 2
        depth = metrics.get("flush.depth")
        assert (depth.value, depth.peak) == (2, 2)
        sim.run()
        assert scheduler.backlog() == 0 and depth.value == 0
        assert db.value_of(1) == 0 and db.value_of(2) == 1

    def test_cancel_and_demand_flush_update_gauge(self, sim):
        metrics = MetricsRegistry()
        scheduler, _, _ = make_scheduler(sim, drives=1, metrics=metrics)
        for lsn, oid in enumerate((1, 2, 3)):
            scheduler.submit(live_record(lsn, oid))
        depth = metrics.get("flush.depth")
        assert depth.value == 2
        scheduler.cancel(2)
        assert depth.value == 1
        scheduler.demand_flush(live_record(3, 3))
        assert depth.value == 0 and depth.peak == 2


class TestSettleLatency:
    """``flush.settle_seconds``: one sample per installed record."""

    def test_resubmit_while_in_service_gets_its_own_sample(self, sim):
        metrics = MetricsRegistry()
        scheduler, _, _ = make_scheduler(sim, drives=1, metrics=metrics)
        scheduler.submit(live_record(0, 5))  # in service from t=0
        sim.run_until(0.004)
        scheduler.submit(live_record(1, 5))  # a newer version, queued at 0.004
        sim.run()
        settle = metrics.histogram("flush.settle_seconds")
        assert scheduler.completed == 2
        assert settle.count == 2
        # Installed at 0.01 and 0.02.
        assert (settle.min, settle.max) == (pytest.approx(0.01), pytest.approx(0.016))

    def test_superseded_request_hands_on_no_submit_time(self, sim):
        metrics = MetricsRegistry()
        scheduler, _, _ = make_scheduler(sim, drives=1, metrics=metrics)
        scheduler.submit(live_record(0, 1))  # in service until 0.01
        scheduler.submit(live_record(1, 5))  # queued at 0
        sim.run_until(0.004)
        scheduler.submit(live_record(2, 5))  # replaces lsn 1 in the pool
        sim.run()
        settle = metrics.histogram("flush.settle_seconds")
        assert scheduler.completed == 2 and scheduler.superseded_in_pool == 1
        assert settle.count == 2
        assert settle.max == pytest.approx(0.016)  # from 0.004, not from 0
        assert not scheduler._submit_times

    def test_one_sample_per_flush_at_a_crowded_paper_point(self):
        """FW 123 over 2,000 objects: oids are often resubmitted in service."""
        config = SimulationConfig.firewall(
            123, num_objects=2000, runtime=60.0, obs=ObsConfig(metrics=True)
        )
        simulation = Simulation(config)
        simulation.run()
        scheduler = simulation.manager.scheduler
        settle = scheduler.metrics.histogram("flush.settle_seconds")
        assert scheduler.completed > 12000
        assert settle.count == scheduler.completed + scheduler.demand_flushes


@given(
    oids=st.sets(st.integers(0, 99), min_size=1, max_size=30),
    position=st.one_of(st.none(), st.integers(0, 99)),
)
@settings(max_examples=300, deadline=None)
def test_take_nearest_is_the_circular_minimum(oids, position):
    """The pool's pick against a scan of every queued oid."""
    partitioner = RangePartitioner(100, 1)
    pool = _DrivePool(100)
    for lsn, oid in enumerate(sorted(oids)):
        pool.add_or_replace(make_data_record(lsn=lsn, oid=oid))
    record, distance = pool.take_nearest(position)
    if position is None:
        assert (record.oid, distance) == (min(oids), None)
    else:
        expected = min(oids, key=lambda oid: (partitioner.distance(position, oid), oid))
        assert record.oid == expected
        assert distance == partitioner.distance(position, expected)
    assert pool.oids == sorted(oids - {record.oid})
    assert set(pool.records) == oids - {record.oid}


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 19)),
        st.tuples(st.just("cancel"), st.integers(0, 19)),
        st.tuples(st.just("demand"), st.integers(0, 19)),
        st.tuples(st.just("step"), st.integers(1, 4)),
    ),
    max_size=60,
)


@given(ops=_OPS, faulty=st.booleans(), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_backlog_counter_matches_pools(ops, faulty, seed):
    sim = Simulator()
    faults = (
        FaultInjector(FaultPlan(flush_fault_rate=0.4, max_retries=0), SimRng(seed))
        if faulty
        else NULL_FAULTS
    )
    scheduler, _, _ = make_scheduler(sim, num_objects=20, drives=2, faults=faults)

    def check():
        assert scheduler.backlog() == sum(len(pool) for pool in scheduler._pools)
        assert scheduler.peak_backlog >= scheduler.backlog()

    for lsn, (op, arg) in enumerate(ops):
        if op == "submit":  # fresh, or superseding a queued oid
            scheduler.submit(live_record(lsn, arg))
        elif op == "cancel":
            scheduler.cancel(arg)
        elif op == "demand":
            scheduler.demand_flush(live_record(lsn, arg))
        else:
            for _ in range(arg):
                sim.step()
        check()
    while sim.step():
        check()
    assert scheduler.backlog() == 0
