"""Transaction (milestone) log records: BEGIN, COMMIT, ABORT.

The paper assumes "only the most recent tx log record is ever required for
any transaction; all earlier tx log records are garbage", and fixes their
size at 8 bytes.
"""

from __future__ import annotations

from repro.constants import TX_RECORD_BYTES
from repro.errors import RecordIntegrityError
from repro.records.base import LogRecord, RecordKind


class TxLogRecord(LogRecord):
    """Base class for transaction milestone records (always 8 bytes)."""

    __slots__ = ()

    def __init__(self, lsn: int, tid: int, timestamp: float, size: int = TX_RECORD_BYTES):
        # Sets and checks the base slots itself (see LogRecord).
        if size <= 0:
            raise RecordIntegrityError(f"record size must be positive, got {size}")
        if lsn < 0:
            raise RecordIntegrityError(f"lsn must be non-negative, got {lsn}")
        self.lsn = lsn
        self.tid = tid
        self.timestamp = timestamp
        self.size = size
        self.cell = None


class BeginRecord(TxLogRecord):
    """Marks the start of a transaction."""

    __slots__ = ()
    kind = RecordKind.BEGIN


class CommitRecord(TxLogRecord):
    """Marks a transaction's commit request.

    The transaction is *durably* committed only once the block containing
    this record has been written to disk (group commit); the log manager
    acknowledges it at that point.
    """

    __slots__ = ()
    kind = RecordKind.COMMIT


class AbortRecord(TxLogRecord):
    """Marks a transaction's abort (voluntary or a kill by the log manager)."""

    __slots__ = ()
    kind = RecordKind.ABORT
