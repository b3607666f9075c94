"""Tests for the logged object table (LOT)."""

from __future__ import annotations

import pytest

from repro.core.cells import Cell
from repro.core.lot import LoggedObjectTable
from repro.disk.block import BlockAddress
from repro.errors import SimulationError

from tests.conftest import make_begin, make_data_record


def add_update(lot: LoggedObjectTable, tid: int, oid: int, lsn: int = 0) -> Cell:
    record = make_data_record(lsn=lsn, tid=tid, oid=oid)
    cell = Cell(record, BlockAddress(0, 0))
    lot.add_uncommitted(cell)
    return cell


class TestEntryLifecycle:
    def test_entry_created_on_first_update(self):
        lot = LoggedObjectTable()
        add_update(lot, tid=1, oid=5)
        assert 5 in lot
        assert len(lot) == 1
        entry = lot.get(5)
        assert entry is not None and entry.committed_cell is None
        assert len(entry.uncommitted_cells) == 1

    def test_entry_deleted_when_empty(self):
        lot = LoggedObjectTable()
        add_update(lot, tid=1, oid=5)
        lot.drop_uncommitted(1, 5)
        assert 5 not in lot
        assert len(lot) == 0

    def test_tx_record_cells_rejected(self):
        lot = LoggedObjectTable()
        cell = Cell(make_begin(), BlockAddress(0, 0))
        with pytest.raises(SimulationError):
            lot.add_uncommitted(cell)

    def test_duplicate_uncommitted_update_rejected(self):
        lot = LoggedObjectTable()
        add_update(lot, tid=1, oid=5)
        with pytest.raises(SimulationError):
            add_update(lot, tid=1, oid=5, lsn=1)


class TestCommitPromotion:
    def test_promote_without_predecessor(self):
        lot = LoggedObjectTable()
        cell = add_update(lot, tid=1, oid=5)
        promoted, superseded = lot.promote_on_commit(1, 5)
        assert promoted is cell
        assert superseded is None
        entry = lot.get(5)
        assert entry is not None and entry.committed_cell is cell
        assert not entry.uncommitted_cells

    def test_promote_supersedes_previous_committed(self):
        lot = LoggedObjectTable()
        old = add_update(lot, tid=1, oid=5, lsn=0)
        lot.promote_on_commit(1, 5)
        new = add_update(lot, tid=2, oid=5, lsn=1)
        promoted, superseded = lot.promote_on_commit(2, 5)
        assert promoted is new
        assert superseded is old
        entry = lot.get(5)
        assert entry is not None and entry.committed_cell is new

    def test_promote_unknown_tx_raises(self):
        lot = LoggedObjectTable()
        add_update(lot, tid=1, oid=5)
        with pytest.raises(SimulationError):
            lot.promote_on_commit(2, 5)

    def test_promote_unknown_oid_raises(self):
        with pytest.raises(SimulationError):
            LoggedObjectTable().promote_on_commit(1, 5)


class TestFlushAndAbort:
    def test_drop_committed_after_flush(self):
        lot = LoggedObjectTable()
        cell = add_update(lot, tid=1, oid=5)
        lot.promote_on_commit(1, 5)
        dropped = lot.drop_committed(lot.get(5))
        assert dropped is cell
        assert 5 not in lot  # entry became empty and was pruned

    def test_drop_committed_keeps_entry_with_pending_uncommitted(self):
        lot = LoggedObjectTable()
        add_update(lot, tid=1, oid=5, lsn=0)
        lot.promote_on_commit(1, 5)
        add_update(lot, tid=2, oid=5, lsn=1)
        lot.drop_committed(lot.get(5))
        assert 5 in lot  # tx 2's uncommitted cell keeps the entry alive

    def test_drop_committed_without_one_raises(self):
        lot = LoggedObjectTable()
        add_update(lot, tid=1, oid=5)
        with pytest.raises(SimulationError):
            lot.drop_committed(lot.get(5))

    def test_drop_uncommitted_on_abort(self):
        lot = LoggedObjectTable()
        add_update(lot, tid=1, oid=5, lsn=0)
        lot.promote_on_commit(1, 5)
        add_update(lot, tid=2, oid=5, lsn=1)
        lot.drop_uncommitted(2, 5)
        entry = lot.get(5)
        assert entry is not None
        assert entry.committed_cell is not None
        assert not entry.uncommitted_cells

    def test_drop_uncommitted_unknown_raises(self):
        lot = LoggedObjectTable()
        with pytest.raises(SimulationError):
            lot.drop_uncommitted(1, 5)

    def test_entries_iteration(self):
        lot = LoggedObjectTable()
        add_update(lot, tid=1, oid=1)
        add_update(lot, tid=2, oid=2)
        assert sorted(e.oid for e in lot.entries()) == [1, 2]
