"""Cells and per-generation circular doubly-linked cell lists.

"A cell exists for every non-garbage record in any generation of the log.
Each cell resides in main memory and points to the record's location on
disk.  The cells corresponding to each generation are joined in a doubly
linked list [which] wraps around in a circular manner; the cells at the head
and tail have right and left pointers to each other."

Orientation (straight from the paper): ``h`` points to the cell for the
non-garbage record nearest the head; the cell nearest the *tail* is
``h.right``; when the head cell ``c`` is removed, the new head cell is the
one "previously to the left of ``c``".  So walking ``left`` from the head
moves toward the tail, and the list wraps: ``tail.left is head``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.disk.block import BlockAddress
from repro.errors import SimulationError
from repro.records.base import LogRecord


class Cell:
    """In-RAM tracker for one non-garbage log record.

    A record is non-garbage exactly while a cell points at it
    (``record.cell is self``); disposal of the cell *is* the garbage
    transition, and it is one-way.
    """

    __slots__ = ("record", "address", "left", "right", "list")

    def __init__(self, record: LogRecord, address: BlockAddress):
        self.record = record
        self.address = address
        self.left: Optional[Cell] = None
        self.right: Optional[Cell] = None
        self.list: Optional[CellList] = None
        record.cell = self

    @property
    def linked(self) -> bool:
        """Whether the cell currently belongs to some generation's list."""
        return self.list is not None

    def repoint(self, record: LogRecord, address: BlockAddress) -> None:
        """Point this cell at a different record/location.

        Used when a transaction writes a newer tx record: "the LM ... updates
        the cell for the transaction's previous tx log record to point to the
        disk block of this newest record".  The old record loses its cell and
        thereby becomes garbage.
        """
        if self.record is not record:
            if self.record.cell is self:
                self.record.cell = None
            record.cell = self
            self.record = record
        self.address = address

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cell {self.address} lsn={self.record.lsn}>"


class CellList:
    """Circular doubly-linked list of cells for one generation.

    ``head`` is the paper's ``h_i`` pointer: the cell for the non-garbage
    record nearest the generation's head, or ``None`` when the generation
    holds no non-garbage records.
    """

    __slots__ = ("generation_index", "head", "_count")

    def __init__(self, generation_index: int):
        self.generation_index = generation_index
        self.head: Optional[Cell] = None
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def tail(self) -> Optional[Cell]:
        """Cell nearest the tail — found via the head's right pointer."""
        if self.head is None:
            return None
        return self.head.right

    def append_tail(self, cell: Cell) -> None:
        """Insert ``cell`` as the new tail (newest record)."""
        if cell.list is not None:
            raise SimulationError("cell already belongs to a list")
        head = self.head
        if head is None:
            # "h_{i+1} ... is updated to point to c (and c's left and right
            # pointers point to itself)."
            cell.left = cell
            cell.right = cell
            self.head = cell
        else:
            old_tail = head.right
            assert old_tail is not None
            old_tail.left = cell
            cell.right = old_tail
            cell.left = head
            head.right = cell
        cell.list = self
        self._count += 1

    def remove(self, cell: Cell) -> None:
        """Unlink ``cell`` (dispose or transfer); updates ``head`` if needed."""
        if cell.list is not self:
            raise SimulationError("cell does not belong to this list")
        if self._count == 1:
            self.head = None
        else:
            left = cell.left
            right = cell.right
            assert left is not None and right is not None
            right.left = left
            left.right = right
            if self.head is cell:
                # "h_i is updated to point to the cell previously to the left
                # of c."
                self.head = left
        cell.left = None
        cell.right = None
        cell.list = None
        self._count -= 1

    def iter_from_head(self) -> Iterator[Cell]:
        """Iterate cells head → tail (oldest record first)."""
        cell = self.head
        if cell is None:
            return
        while True:
            yield cell
            assert cell.left is not None
            cell = cell.left
            if cell is self.head:
                break

    def check_invariants(self) -> None:
        """Validate circularity, pointer symmetry and the count (for tests)."""
        if self.head is None:
            if self._count != 0:
                raise SimulationError(f"empty list reports count {self._count}")
            return
        seen = 0
        cell = self.head
        while True:
            if cell.list is not self:
                raise SimulationError("linked cell has wrong owner")
            assert cell.left is not None and cell.right is not None
            if cell.left.right is not cell or cell.right.left is not cell:
                raise SimulationError("pointer symmetry violated")
            seen += 1
            if seen > self._count:
                raise SimulationError("list longer than its count (cycle error)")
            cell = cell.left
            if cell is self.head:
                break
        if seen != self._count:
            raise SimulationError(f"count {self._count} != traversal {seen}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CellList gen={self.generation_index} count={self._count}>"
