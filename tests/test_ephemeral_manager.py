"""Unit tests for the ephemeral log manager's bookkeeping and head policies."""

from __future__ import annotations

import pytest

from repro.core.killpolicy import KillPolicy
from repro.core.ltt import TxStatus
from repro.errors import LogFullError, SimulationError

from tests.conftest import ManualHarness


class TestBeginAndUpdate:
    def test_begin_registers_ltt_entry_with_cell(self, harness):
        tid = harness.begin()
        entry = harness.manager.ltt.require(tid)
        assert entry.status is TxStatus.ACTIVE
        assert entry.tx_cell is not None
        assert entry.tx_cell.list is harness.manager.generations[0].cells

    def test_update_registers_lot_entry_and_oid(self, harness):
        tid = harness.begin()
        harness.update(tid, oid=7)
        assert 7 in harness.manager.lot
        assert 7 in harness.manager.ltt.require(tid).oids

    def test_update_requires_active_tx(self, harness):
        tid = harness.begin()
        harness.commit(tid)
        with pytest.raises(SimulationError):
            harness.update(tid, oid=1)

    def test_update_unknown_tx_raises(self, harness):
        with pytest.raises(SimulationError):
            harness.update(99, oid=1)

    def test_memory_accounting_uses_paper_model(self, harness):
        tid = harness.begin()
        harness.update(tid, oid=1)
        harness.update(tid, oid=2)
        # 1 LTT entry + 2 LOT entries at 40 bytes each.
        assert harness.manager.memory_bytes() == 40 + 80


class TestCommitProtocol:
    def test_ack_requires_durable_commit_record(self, harness):
        tid = harness.begin()
        harness.update(tid, oid=1)
        harness.commit(tid)
        assert not harness.acked(tid)  # buffer not full, nothing written yet
        harness.manager.drain()
        assert not harness.acked(tid)  # write still in flight
        harness.settle(0.1)
        assert harness.acked(tid)

    def test_commit_pending_status_between_request_and_ack(self, harness):
        tid = harness.begin()
        harness.commit(tid)
        assert harness.manager.ltt.require(tid).status is TxStatus.COMMIT_PENDING

    def test_commit_moves_tx_cell_to_newest_record(self, harness):
        tid = harness.begin()
        entry = harness.manager.ltt.require(tid)
        begin_record = entry.tx_cell.record
        harness.commit(tid)
        assert entry.tx_cell.record is not begin_record
        assert begin_record.is_garbage  # only the most recent tx record counts

    def test_double_commit_rejected(self, harness):
        tid = harness.begin()
        harness.commit(tid)
        with pytest.raises(SimulationError):
            harness.commit(tid)

    def test_updates_flushed_after_ack_then_tx_settles(self, harness):
        tid = harness.run_one_transaction(oids=(1, 2))
        assert harness.acked(tid)
        assert harness.database.value_of(1) != 0
        assert harness.database.value_of(2) != 0
        assert tid not in harness.manager.ltt  # settled and retired
        assert 1 not in harness.manager.lot
        harness.manager.check_invariants()

    def test_empty_transaction_settles_at_ack(self, harness):
        tid = harness.begin()
        harness.commit(tid)
        harness.manager.drain()
        harness.settle()
        assert harness.acked(tid)
        assert tid not in harness.manager.ltt

    def test_superseding_commit_garbages_previous_update(self, harness):
        first = harness.run_one_transaction(oids=(5,))
        # Re-update oid 5 from a second transaction before... the first is
        # already flushed, so instead check supersede in the pool: commit
        # two transactions back to back without letting flushes run.
        assert harness.database.value_of(5) != 0
        second = harness.begin()
        value = harness.update(second, oid=5)
        harness.commit(second)
        harness.manager.drain()
        harness.settle()
        assert harness.database.value_of(5) == value
        assert first != second


class TestAbortAndKill:
    def test_abort_garbages_everything(self, harness):
        tid = harness.begin()
        harness.update(tid, oid=3)
        harness.manager.abort(tid)
        assert tid not in harness.manager.ltt
        assert 3 not in harness.manager.lot
        assert harness.manager.aborted_count == 1
        harness.manager.check_invariants()

    def test_abort_non_live_rejected(self, harness):
        tid = harness.begin()
        harness.manager.abort(tid)
        with pytest.raises(SimulationError):
            harness.manager.abort(tid)

    def test_commit_pending_tx_is_not_killable(self, harness):
        # Once the COMMIT record has been handed to the log it may already
        # be durable; killing the transaction then would let recovery redo
        # unacknowledged work.
        tid = harness.begin()
        harness.update(tid, oid=1)
        harness.commit(tid)
        with pytest.raises(SimulationError):
            harness.manager._kill(tid, reason="test")

    def test_kill_notifies_hook(self, harness):
        tid = harness.begin()
        harness.manager._kill(tid, reason="test")
        assert [t for t, _ in harness.kills] == [tid]
        assert harness.manager.kill_count == 1


class TestHeadAdvancement:
    def _write_updates(self, harness, tid, count, first_oid=100):
        for i in range(count):
            harness.update(tid, oid=first_oid + i)

    def _stream_short_transactions(self, harness, count, first_oid=500,
                                   settle_every=4):
        """Committed traffic that pushes the log heads forward.

        Settling only every few transactions keeps several of them live at
        any instant, so head advances regularly meet non-garbage records.
        """
        for i in range(count):
            tid = harness.begin()
            harness.update(tid, oid=first_oid + i)
            harness.commit(tid)
            if i % settle_every == settle_every - 1:
                harness.settle(0.05)

    def test_live_records_forwarded_to_next_generation(self):
        # One long transaction writing 16 x 100 B wraps the 4 x 400 B first
        # generation; its live records must move to generation 1.
        harness = ManualHarness(generation_sizes=(4, 8), recirculation=False)
        tid = harness.begin()
        self._write_updates(harness, tid, 16)
        manager = harness.manager
        assert manager.forwarded_records > 0
        assert len(manager.generations[1].cells) > 0
        assert manager.kill_count == 0
        manager.check_invariants()

    def test_forwarded_cells_point_at_generation_one(self):
        harness = ManualHarness(generation_sizes=(4, 8), recirculation=False)
        tid = harness.begin()
        self._write_updates(harness, tid, 16)
        assert len(harness.manager.generations[1].cells) > 0
        for cell in harness.manager.generations[1].cells.iter_from_head():
            assert cell.address.generation == 1

    def test_recirculation_in_last_generation(self):
        # Two never-committing transactions hold a few records while short
        # transactions push traffic through; the survivors must recirculate
        # once they reach the last generation's head.
        harness = ManualHarness(generation_sizes=(4, 4), recirculation=True)
        long_a = harness.begin()
        long_b = harness.begin()
        harness.update(long_a, oid=1)
        harness.update(long_b, oid=2)
        self._stream_short_transactions(harness, 60)
        manager = harness.manager
        assert manager.recirculated_records > 0
        assert manager.kill_count == 0
        assert long_a in manager.ltt and long_b in manager.ltt
        manager.check_invariants()

    def test_kill_at_last_generation_head_without_recirculation(self):
        harness = ManualHarness(generation_sizes=(4, 4), recirculation=False)
        long_tx = harness.begin()
        harness.update(long_tx, oid=1)
        self._stream_short_transactions(harness, 60)
        assert harness.manager.kill_count >= 1
        assert long_tx in [tid for tid, _ in harness.kills]

    def test_forbid_policy_raises_instead_of_killing(self):
        harness = ManualHarness(
            generation_sizes=(4, 4),
            recirculation=False,
            kill_policy=KillPolicy.FORBID,
        )
        long_tx = harness.begin()
        harness.update(long_tx, oid=1)
        with pytest.raises(LogFullError):
            self._stream_short_transactions(harness, 60)

    def test_garbage_copies_discarded_at_head(self):
        harness = ManualHarness(generation_sizes=(4, 8))
        self._stream_short_transactions(harness, 12)
        assert harness.manager.garbage_copies_discarded > 0
        harness.manager.check_invariants()

    def test_committed_unflushed_survive_scarce_flushing(self):
        # Flushes take 5 s, so committed updates stay unflushed and reach
        # the last head; they must be recirculated or demand-flushed, and
        # committed transactions must never be killed.
        harness = ManualHarness(
            generation_sizes=(4, 4),
            recirculation=True,
            flush_write_seconds=5.0,
        )
        self._stream_short_transactions(harness, 30, first_oid=600)
        manager = harness.manager
        assert manager.kill_count == 0
        assert manager.recirculated_records + manager.scheduler.demand_flushes > 0
        manager.check_invariants()

    def test_gathered_forward_blocks_are_mostly_full(self):
        harness = ManualHarness(generation_sizes=(4, 8), recirculation=False)
        tid = harness.begin()
        self._write_updates(harness, tid, 20)
        gen1 = harness.manager.generations[1]
        assert gen1.blocks_written > 0
        mean_fill = gen1.bytes_written / (gen1.blocks_written * 400)
        assert mean_fill > 0.5


class TestInvariants:
    def test_conservation_of_records(self, harness):
        for i in range(20):
            tid = harness.begin()
            harness.update(tid, oid=700 + i)
            harness.commit(tid)
            harness.settle(0.1)
        manager = harness.manager
        appended = sum(g.records_appended for g in manager.generations)
        assert appended == (
            manager.fresh_records
            + manager.forwarded_records
            + manager.recirculated_records
        )

    def test_every_non_garbage_record_has_exactly_one_cell(self, harness):
        tids = [harness.begin() for _ in range(3)]
        for i, tid in enumerate(tids):
            harness.update(tid, oid=800 + i)
        seen = set()
        for generation in harness.manager.generations:
            for cell in generation.cells.iter_from_head():
                assert cell.record.cell is cell
                assert cell.record.lsn not in seen
                seen.add(cell.record.lsn)

    def test_configuration_validation(self):
        with pytest.raises(Exception):
            ManualHarness(generation_sizes=())
        with pytest.raises(Exception):
            ManualHarness(generation_sizes=(2,))  # below gap+1
