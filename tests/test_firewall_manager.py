"""Tests for the firewall (System R) baseline log manager."""

from __future__ import annotations

import pytest

from repro.core.memory import MemoryModel
from repro.errors import ConfigurationError

from tests.conftest import ManualHarness


def make_fw(log_blocks=8, **kwargs) -> ManualHarness:
    return ManualHarness(technique="fw", generation_sizes=(log_blocks,), **kwargs)


class TestConfiguration:
    def test_single_queue(self):
        harness = make_fw()
        assert len(harness.manager.generations) == 1
        assert not harness.manager.recirculation
        assert harness.manager.total_log_capacity() == 8

    def test_memory_model_is_22_bytes_per_transaction(self):
        harness = make_fw()
        assert harness.manager.memory_model == MemoryModel.firewall()
        harness.begin()
        harness.begin()
        assert harness.manager.memory_bytes() == 44

    def test_lot_entries_do_not_count_toward_memory(self):
        harness = make_fw()
        tid = harness.begin()
        harness.update(tid, oid=1)
        harness.update(tid, oid=2)
        assert harness.manager.memory_bytes() == 22


class TestFirewallSemantics:
    def test_firewall_distance_none_when_clean(self):
        harness = make_fw()
        assert harness.manager.firewall_distance() is None

    def test_firewall_at_oldest_non_garbage_record(self):
        harness = make_fw()
        harness.begin()
        # The BEGIN record sits in the (reserved) head block: distance 0.
        assert harness.manager.firewall_distance() == 0
        assert harness.manager.reclaimable_blocks() == 0

    def test_reclaimable_blocks_grow_as_old_records_die(self):
        harness = make_fw(log_blocks=8)
        # One settled transaction, then a live one several blocks later.
        first = harness.run_one_transaction(oids=(1, 2))
        assert harness.acked(first)
        live = harness.begin()
        harness.update(live, oid=50)
        distance = harness.manager.firewall_distance()
        assert distance is not None and distance >= 0

    def test_long_transaction_killed_when_log_fills(self):
        harness = make_fw(log_blocks=4)
        long_tx = harness.begin()
        harness.update(long_tx, oid=1)
        for i in range(40):
            tid = harness.begin()
            # In a 4-block log, freshly begun transactions can themselves be
            # killed before they get any further; skip those.
            if tid in harness.manager.ltt:
                harness.update(tid, oid=100 + i)
            if tid in harness.manager.ltt:
                harness.commit(tid)
            if i % 4 == 3:
                harness.settle(0.05)
        assert long_tx in [tid for tid, _ in harness.kills]

    def test_committed_work_survives_when_space_suffices(self):
        harness = make_fw(log_blocks=12)
        for i in range(20):
            tid = harness.begin()
            harness.update(tid, oid=100 + i)
            harness.commit(tid)
            harness.settle(0.1)
        harness.manager.drain()
        harness.settle()
        assert harness.manager.kill_count == 0
        assert len(harness.acks) == 20

    def test_demand_flush_for_committed_records_at_head(self):
        # Committed but unflushed records at the firewall head cannot be
        # forwarded (single queue) so they are flushed on the spot.
        harness = make_fw(log_blocks=4, flush_write_seconds=5.0)
        for i in range(30):
            tid = harness.begin()
            harness.update(tid, oid=100 + i)
            harness.commit(tid)
            if i % 3 == 2:
                harness.settle(0.02)
        assert harness.manager.scheduler.demand_flushes > 0
        assert harness.manager.kill_count == 0

    def test_config_rejects_multiple_fw_queues(self):
        from repro.harness.config import SimulationConfig, Technique

        with pytest.raises(ConfigurationError):
            SimulationConfig(
                technique=Technique.FIREWALL,
                generation_sizes=(4, 4),
                recirculation=False,
            )


class TestAgainstEphemeralSharedMachinery:
    def test_forwarding_counters_stay_zero(self):
        harness = make_fw(log_blocks=6)
        for i in range(15):
            tid = harness.begin()
            harness.update(tid, oid=100 + i)
            harness.commit(tid)
            harness.settle(0.1)
        assert harness.manager.forwarded_records == 0
        assert harness.manager.recirculated_records == 0

    def test_invariants_hold_after_traffic(self):
        harness = make_fw(log_blocks=8)
        for i in range(25):
            tid = harness.begin()
            harness.update(tid, oid=100 + i)
            harness.commit(tid)
            harness.settle(0.05)
        harness.manager.check_invariants()
