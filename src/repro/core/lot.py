"""The logged object table (LOT).

"The LOT has an entry for every data object which has at least one
non-garbage data log record somewhere in the log. ... An object has a cell
for the most recently committed update (if any) if this update has not yet
been flushed; it may have several cells for uncommitted updates."

The LOT is accessed associatively by oid.  The paper prescribes a hash table
with chaining; Python's ``dict`` *is* an open-hashing associative table, so
we use it directly and model the chaining behaviour (dynamic growth, no
tombstone issues) that motivated the paper's choice.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.core.cells import Cell
from repro.errors import SimulationError
from repro.records.data import DataLogRecord


class LotEntry:
    """Per-object bookkeeping: committed-unflushed cell + uncommitted cells."""

    __slots__ = ("oid", "committed_cell", "uncommitted_cells")

    def __init__(self, oid: int):
        self.oid = oid
        #: Cell for the most recently committed, not-yet-flushed update.
        self.committed_cell: Optional[Cell] = None
        #: tid -> cell for that transaction's (uncommitted) update.
        self.uncommitted_cells: Dict[int, Cell] = {}

    @property
    def empty(self) -> bool:
        """True when the object has no non-garbage data records left."""
        return self.committed_cell is None and not self.uncommitted_cells

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LotEntry oid={self.oid} committed={self.committed_cell is not None} "
            f"uncommitted={len(self.uncommitted_cells)}>"
        )


class LoggedObjectTable:
    """oid -> :class:`LotEntry` for all objects with non-garbage data records."""

    def __init__(self) -> None:
        self._entries: Dict[int, LotEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, oid: int) -> bool:
        return oid in self._entries

    def get(self, oid: int) -> Optional[LotEntry]:
        return self._entries.get(oid)

    def entries(self) -> Iterator[LotEntry]:
        return iter(self._entries.values())

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def add_uncommitted(self, cell: Cell) -> LotEntry:
        """Register a new uncommitted update's cell under its object.

        Creates the LOT entry if the object had none ("If an entry does not
        already exist for the object in the LOT, the LM creates one").
        """
        record = cell.record
        if not isinstance(record, DataLogRecord):
            raise SimulationError("LOT cells must point at data log records")
        entry = self._entries.get(record.oid)
        if entry is None:
            entry = LotEntry(record.oid)
            self._entries[record.oid] = entry
        if record.tid in entry.uncommitted_cells:
            raise SimulationError(
                f"tx {record.tid} already has an uncommitted update for oid "
                f"{record.oid} (the workload's oid constraint forbids this)"
            )
        entry.uncommitted_cells[record.tid] = cell
        return entry

    def promote_on_commit(self, tid: int, oid: int) -> Tuple[Cell, Optional[Cell]]:
        """Make ``tid``'s update the most-recently-committed one for ``oid``.

        Returns the promoted cell and the cell of the *previous* committed
        update if one existed — that record "is now garbage" and the caller
        must dispose it.
        """
        entry = self._require(oid)
        cell = entry.uncommitted_cells.pop(tid, None)
        if cell is None:
            raise SimulationError(f"tx {tid} has no uncommitted update for oid {oid}")
        superseded = entry.committed_cell
        entry.committed_cell = cell
        return cell, superseded

    def drop_uncommitted(self, tid: int, oid: int) -> Cell:
        """Remove an aborted transaction's cell for ``oid`` (caller disposes)."""
        entry = self._require(oid)
        cell = entry.uncommitted_cells.pop(tid, None)
        if cell is None:
            raise SimulationError(f"tx {tid} has no uncommitted update for oid {oid}")
        self._prune(entry)
        return cell

    def drop_committed(self, entry: LotEntry) -> Cell:
        """Remove ``entry``'s committed-unflushed cell after its update was flushed."""
        cell = entry.committed_cell
        if cell is None:
            raise SimulationError(f"oid {entry.oid} has no committed unflushed update")
        entry.committed_cell = None
        self._prune(entry)
        return cell

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, oid: int) -> LotEntry:
        entry = self._entries.get(oid)
        if entry is None:
            raise SimulationError(f"oid {oid} has no LOT entry")
        return entry

    def _prune(self, entry: LotEntry) -> None:
        if entry.empty:
            # "If the set of remaining cells is empty ... the LM deletes the
            # object's entry from the LOT."
            del self._entries[entry.oid]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LoggedObjectTable entries={len(self._entries)}>"
