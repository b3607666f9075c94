"""Data log records: REDO-only images of object updates.

The paper assumes no-steal buffering ("transactions never write out
uncommitted updates to the disk version of the database"), so a data record
carries only the *new* value of the object (physical state logging on the
access path level).
"""

from __future__ import annotations

from repro.errors import RecordIntegrityError
from repro.records.base import LogRecord, RecordKind


class DataLogRecord(LogRecord):
    """An after-image of one object update by one transaction.

    Attributes:
        oid: identifier of the updated object.
        value: the new value written (an opaque integer in the simulator; a
            real system would store bytes — only the declared ``size``
            matters for disk accounting).
    """

    __slots__ = ("oid", "value")

    kind = RecordKind.DATA

    def __init__(
        self,
        lsn: int,
        tid: int,
        timestamp: float,
        size: int,
        oid: int,
        value: int,
    ):
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
        self.oid = oid
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DataLogRecord lsn={self.lsn} tid={self.tid} oid={self.oid} "
            f"value={self.value} t={self.timestamp:.6f} size={self.size}>"
        )
