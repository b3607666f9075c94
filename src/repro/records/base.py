"""Base class and shared machinery for log records."""

from __future__ import annotations

import enum
import itertools
from typing import Callable


class RecordKind(enum.IntEnum):
    """Discriminator for the record types that may appear in the log."""

    BEGIN = 1
    COMMIT = 2
    ABORT = 3
    DATA = 4

    @property
    def is_tx(self) -> bool:
        """Whether this is a transaction (milestone) record."""
        return self in (RecordKind.BEGIN, RecordKind.COMMIT, RecordKind.ABORT)


class LogRecord:
    """Common state for every record written to the log.

    Attributes:
        lsn: log sequence number, unique and monotone in write order.
        tid: identifier of the transaction that wrote the record.
        timestamp: simulated time at which the record was written.
        size: bytes the record occupies in a disk block (the paper's
            accounting size: 8 for tx records, the declared data size for
            data records).
        cell: back-reference to the in-memory :class:`repro.core.cells.Cell`
            tracking this record while it is non-garbage, else ``None``.
            ``cell is None`` is exactly the paper's "garbage" state for a
            record that once had a cell.

    The concrete classes (:class:`~repro.records.data.DataLogRecord` and
    :class:`~repro.records.tx.TxLogRecord`) assign these slots and
    check ``size > 0`` and ``lsn >= 0`` in their own ``__init__``: a run
    builds one record per update and per transaction milestone, so the
    ``super().__init__`` frame is left out.
    """

    __slots__ = ("lsn", "tid", "timestamp", "size", "cell")

    kind: RecordKind  # set by subclasses

    @property
    def is_garbage(self) -> bool:
        """A record is garbage once it no longer has a live cell."""
        return self.cell is None

    def sort_key(self) -> tuple[float, int]:
        """Temporal order key: timestamp, with LSN as the tiebreaker."""
        return (self.timestamp, self.lsn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} lsn={self.lsn} tid={self.tid} "
            f"t={self.timestamp:.6f} size={self.size}>"
        )


def next_lsn_factory(start: int = 0) -> Callable[[], int]:
    """Return a callable producing consecutive LSNs starting at ``start``."""
    # The bound ``__next__`` of a C iterator: no Python frame per LSN.
    return itertools.count(start).__next__
