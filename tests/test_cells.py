"""Tests for cells and the circular doubly-linked cell lists."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import Cell, CellList
from repro.disk.block import BlockAddress
from repro.errors import SimulationError

from tests.conftest import make_data_record


def make_cell(lsn: int = 0, generation: int = 0, slot: int = 0) -> Cell:
    record = make_data_record(lsn=lsn)
    return Cell(record, BlockAddress(generation, slot))


class TestCell:
    def test_cell_marks_record_non_garbage(self):
        record = make_data_record()
        assert record.is_garbage
        cell = Cell(record, BlockAddress(0, 0))
        assert not record.is_garbage
        assert record.cell is cell

    def test_repoint_moves_garbage_status(self):
        old = make_data_record(lsn=0)
        new = make_data_record(lsn=1)
        cell = Cell(old, BlockAddress(0, 0))
        cell.repoint(new, BlockAddress(0, 3))
        assert old.is_garbage
        assert new.cell is cell
        assert cell.address == BlockAddress(0, 3)

    def test_repoint_same_record_updates_address_only(self):
        record = make_data_record()
        cell = Cell(record, BlockAddress(0, 0))
        cell.repoint(record, BlockAddress(1, 2))
        assert record.cell is cell
        assert cell.address == BlockAddress(1, 2)


class TestCellList:
    def test_single_cell_self_linked(self):
        cells = CellList(0)
        cell = make_cell()
        cells.append_tail(cell)
        assert cells.head is cell
        assert cell.left is cell and cell.right is cell
        assert len(cells) == 1
        cells.check_invariants()

    def test_head_is_oldest_tail_is_newest(self):
        cells = CellList(0)
        a, b, c = make_cell(0), make_cell(1), make_cell(2)
        for cell in (a, b, c):
            cells.append_tail(cell)
        assert cells.head is a
        assert cells.tail is c
        # "the cell nearest the tail can be found by following the right
        # pointer of the cell pointed to by h_i"
        assert a.right is c
        cells.check_invariants()

    def test_iter_from_head_order(self):
        cells = CellList(0)
        created = [make_cell(i) for i in range(5)]
        for cell in created:
            cells.append_tail(cell)
        assert list(cells.iter_from_head()) == created

    def test_remove_head_updates_h(self):
        cells = CellList(0)
        a, b = make_cell(0), make_cell(1)
        cells.append_tail(a)
        cells.append_tail(b)
        cells.remove(a)
        assert cells.head is b
        cells.check_invariants()

    def test_remove_middle(self):
        cells = CellList(0)
        a, b, c = make_cell(0), make_cell(1), make_cell(2)
        for cell in (a, b, c):
            cells.append_tail(cell)
        cells.remove(b)
        assert list(cells.iter_from_head()) == [a, c]
        cells.check_invariants()

    def test_remove_last_cell_empties_list(self):
        cells = CellList(0)
        cell = make_cell()
        cells.append_tail(cell)
        cells.remove(cell)
        assert cells.head is None
        assert len(cells) == 0
        assert not cell.linked

    def test_cannot_append_linked_cell(self):
        first, second = CellList(0), CellList(1)
        cell = make_cell()
        first.append_tail(cell)
        with pytest.raises(SimulationError):
            second.append_tail(cell)

    def test_cannot_remove_foreign_cell(self):
        first, second = CellList(0), CellList(1)
        cell = make_cell()
        first.append_tail(cell)
        with pytest.raises(SimulationError):
            second.remove(cell)

    def test_transfer_between_lists(self):
        source, target = CellList(0), CellList(1)
        cell = make_cell()
        source.append_tail(cell)
        source.remove(cell)
        target.append_tail(cell)
        assert cell.list is target
        assert target.head is cell
        source.check_invariants()
        target.check_invariants()

    def test_empty_iteration(self):
        assert list(CellList(0).iter_from_head()) == []

    def test_churn_keeps_the_live_cells(self):
        import random

        cells = CellList(0)
        live: list[Cell] = []
        rng = random.Random(0)
        for lsn in range(10_000):
            cell = make_cell(lsn, slot=lsn % 64)
            cells.append_tail(cell)
            live.append(cell)
            if len(live) > 500:
                cells.remove(live.pop(rng.randrange(len(live))))
        assert len(cells) == 500
        assert set(cells.iter_from_head()) == set(live)


class TestCellListModel:
    """Random append/remove sequences against a plain list model."""

    @given(
        ops=st.lists(
            st.one_of(
                st.just(("append", 0)),
                st.tuples(st.just("remove"), st.integers(min_value=0, max_value=30)),
            ),
            max_size=100,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_list_model(self, ops):
        cells = CellList(0)
        model: list[Cell] = []
        counter = 0
        for op, index in ops:
            if op == "append":
                cell = make_cell(counter)
                counter += 1
                cells.append_tail(cell)
                model.append(cell)
            elif model:
                victim = model.pop(index % len(model))
                cells.remove(victim)
            assert list(cells.iter_from_head()) == model
            assert len(cells) == len(model)
            assert cells.head is (model[0] if model else None)
            assert cells.tail is (model[-1] if model else None)
            cells.check_invariants()
