"""Tests for the EL-FW hybrid log manager (paper §6 extension)."""

from __future__ import annotations

import itertools

import pytest

from repro.core.hybrid import HybridLogManager
from repro.db.database import StableDatabase
from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Simulator


class HybridHarness:
    def __init__(self, queue_sizes=(4, 8), payload_bytes=400):
        self.sim = Simulator()
        self.database = StableDatabase(1000)
        self.manager = HybridLogManager(
            self.sim,
            self.database,
            queue_sizes=list(queue_sizes),
            flush_drives=2,
            flush_write_seconds=0.005,
            payload_bytes=payload_bytes,
        )
        self.acks: list[int] = []
        self._tid = itertools.count(1)
        self._value = itertools.count(100)

    def begin(self) -> int:
        tid = next(self._tid)
        self.manager.begin(tid)
        return tid

    def update(self, tid: int, oid: int) -> int:
        value = next(self._value)
        self.manager.log_update(tid, oid, value, 100)
        return value

    def commit_and_settle(self, tid: int) -> None:
        self.manager.request_commit(tid, lambda t, when: self.acks.append(t))
        for queue in self.manager.generations:
            queue.seal_open_buffers()
        self.sim.run_until(self.sim.now + 1.0)


class TestBasicProtocol:
    def test_commit_acks_and_flushes(self):
        harness = HybridHarness()
        tid = harness.begin()
        value = harness.update(tid, oid=5)
        harness.commit_and_settle(tid)
        assert harness.acks == [tid]
        assert harness.database.value_of(5) == value
        assert len(harness.manager._entries) == 0  # settled and retired

    def test_memory_counts_transactions_only(self):
        harness = HybridHarness()
        tid = harness.begin()
        for oid in range(10):
            harness.update(tid, oid=oid)
        # 1 transaction x 40 bytes, regardless of update count.
        assert harness.manager.memory_bytes() == 40

    def test_abort_drops_entry(self):
        harness = HybridHarness()
        tid = harness.begin()
        harness.update(tid, oid=1)
        harness.manager.abort(tid)
        assert harness.manager.live_transactions() == 0
        assert harness.manager.aborted_count == 1

    def test_update_after_commit_rejected(self):
        harness = HybridHarness()
        tid = harness.begin()
        harness.manager.request_commit(tid, lambda t, when: None)
        with pytest.raises(SimulationError):
            harness.update(tid, oid=1)

    def test_unknown_tid_rejected(self):
        harness = HybridHarness()
        with pytest.raises(SimulationError):
            harness.update(77, oid=1)

    def test_needs_queue_sizes(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            HybridLogManager(sim, StableDatabase(10), queue_sizes=[])


class TestRegeneration:
    def test_long_transaction_regenerated_into_next_queue(self):
        harness = HybridHarness(queue_sizes=(4, 8))
        long_tx = harness.begin()
        harness.update(long_tx, oid=1)
        # Push enough committed traffic through queue 0 to wrap it.
        for i in range(30):
            tid = harness.begin()
            harness.update(tid, oid=100 + i)
            harness.manager.request_commit(tid, lambda t, when: None)
            if i % 4 == 3:
                harness.sim.run_until(harness.sim.now + 0.05)
        manager = harness.manager
        assert manager.regenerated_records > 0
        entry = manager._entries[long_tx]
        assert entry.queue_index == 1
        assert manager.kill_count == 0

    def test_regenerated_transaction_still_commits_correctly(self):
        harness = HybridHarness(queue_sizes=(4, 8))
        long_tx = harness.begin()
        value = harness.update(long_tx, oid=1)
        for i in range(30):
            tid = harness.begin()
            harness.update(tid, oid=100 + i)
            harness.manager.request_commit(tid, lambda t, when: None)
            if i % 4 == 3:
                harness.sim.run_until(harness.sim.now + 0.05)
        harness.commit_and_settle(long_tx)
        assert long_tx in harness.acks
        assert harness.database.value_of(1) == value

    def test_bandwidth_exceeds_record_count(self):
        # Regeneration rewrites all of a transaction's records, so total
        # appended records exceed the fresh ones whenever relocation happens.
        harness = HybridHarness(queue_sizes=(4, 8))
        long_tx = harness.begin()
        for oid in range(5):
            harness.update(long_tx, oid=oid)
        for i in range(30):
            tid = harness.begin()
            harness.update(tid, oid=100 + i)
            harness.manager.request_commit(tid, lambda t, when: None)
            if i % 4 == 3:
                harness.sim.run_until(harness.sim.now + 0.05)
        manager = harness.manager
        appended = sum(q.records_appended for q in manager.generations)
        assert appended == manager.fresh_records + manager.regenerated_records
        assert manager.regenerated_records >= 5  # the long tx moved wholesale
