"""Runtime state of one simulated transaction."""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.sim.events import EventHandle
from repro.workload.spec import TransactionType


class TxOutcome(enum.Enum):
    """Terminal states a simulated transaction can reach."""

    RUNNING = "running"
    COMMITTED = "committed"  # group-commit acknowledged
    KILLED = "killed"  # aborted by the log manager for lack of log space
    UNFINISHED = "unfinished"  # the simulation ended first


class TransactionRun:
    """Bookkeeping for one in-flight transaction (Figure 3 schedule)."""

    __slots__ = (
        "tid",
        "tx_type",
        "begin_time",
        "commit_request_time",
        "ack_time",
        "outcome",
        "oids",
        "updates",
        "update_lsns",
        "pending_events",
    )

    def __init__(self, tid: int, tx_type: TransactionType, begin_time: float):
        self.tid = tid
        self.tx_type = tx_type
        self.begin_time = begin_time
        self.commit_request_time: Optional[float] = None
        self.ack_time: Optional[float] = None
        self.outcome = TxOutcome.RUNNING
        #: Oids this transaction holds (released when it finishes).
        self.oids: List[int] = []
        #: (oid, value, write time) per update, for recovery verification.
        self.updates: List[Tuple[int, int, float]] = []
        #: LSN of each update's data record, parallel to :attr:`updates`.
        self.update_lsns: List[int] = []
        #: Handles for scheduled record writes, cancelled on kill and
        #: dropped on commit (each handle references this run).
        self.pending_events: List[EventHandle] = []

    @property
    def commit_latency(self) -> Optional[float]:
        """Group-commit delay t4 − t3, once acknowledged."""
        if self.ack_time is None or self.commit_request_time is None:
            return None
        return self.ack_time - self.commit_request_time

    def cancel_pending(self) -> int:
        """Cancel all still-pending scheduled events; returns how many."""
        cancelled = 0
        for handle in self.pending_events:
            if handle.cancel():
                cancelled += 1
        self.pending_events.clear()
        return cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TransactionRun tid={self.tid} type={self.tx_type.name} "
            f"{self.outcome.value}>"
        )
