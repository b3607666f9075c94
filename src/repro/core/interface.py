"""Abstract log-manager interface and shared policy enums.

A log manager (LM) is "the component of a DBMS which is responsible for
managing a log of database activity".  The workload generator drives it
through this interface; the harness reads metrics back out of it.  Two full
implementations exist (:class:`~repro.core.ephemeral.EphemeralLogManager`
and :class:`~repro.core.firewall.FirewallLogManager`) plus the hybrid
extension.
"""

from __future__ import annotations

import abc
import enum
from typing import Callable, Optional

from repro.records.data import DataLogRecord

#: Callback fired when a transaction's COMMIT becomes durable (t4 in Fig. 3).
CommitAckCallback = Callable[[int, float], None]
#: Callback fired when the LM kills a transaction for lack of log space.
KillCallback = Callable[[int, float], None]


class UnflushedHeadPolicy(enum.Enum):
    """What to do when a committed-but-unflushed update reaches a head.

    "In practice, a few may reach the head of a generation and require
    flushing; there will be a small amount of random I/O ... Alternatively,
    we can keep an unflushed update's record in the log by forwarding or
    recirculating it until the update is eventually flushed."
    """

    #: Flush the update on the spot (random I/O) and discard the record.
    DEMAND_FLUSH = "demand_flush"
    #: Forward/recirculate the record; demand-flush only where the log has
    #: nowhere to keep it (last generation with recirculation disabled).
    KEEP_IN_LOG = "keep_in_log"


class LogManager(abc.ABC):
    """The API a DBMS (here: the workload generator) uses to talk to a LM."""

    #: Hook the workload installs to learn about kills (cancel future work).
    on_kill: Optional[KillCallback]

    #: Record counts the harness reads off every manager; a technique
    #: without the mechanism (FW never forwards, EL never regenerates)
    #: leaves its count at zero.
    fresh_records = 0
    forwarded_records = 0
    recirculated_records = 0
    regenerated_records = 0
    garbage_copies_discarded = 0

    # ------------------------------------------------------------------
    # Transaction-facing operations
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def begin(self, tid: int, expected_lifetime: Optional[float] = None) -> None:
        """Start transaction ``tid``; writes its BEGIN record.

        ``expected_lifetime`` is the optional scheduling hint from the
        paper's concluding remarks ("the transaction manager can estimate
        the expected lifetime of a transaction when it begins"); managers
        without a placement policy ignore it.
        """

    @abc.abstractmethod
    def log_update(
        self, tid: int, oid: int, value: int, size: int
    ) -> DataLogRecord:
        """Record that ``tid`` wrote ``value`` to object ``oid``.

        ``size`` is the data log record's size in bytes (the workload's
        per-type record size).  Returns the appended data record: its LSN
        and timestamp are what recovery reads back for this update."""

    @abc.abstractmethod
    def request_commit(self, tid: int, on_ack: CommitAckCallback) -> None:
        """Write the COMMIT record; ``on_ack`` fires when it is durable."""

    @abc.abstractmethod
    def abort(self, tid: int) -> None:
        """Voluntarily abort ``tid``; all its records become garbage."""

    # ------------------------------------------------------------------
    # Introspection for metrics and tests
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Paper-model RAM bytes currently used by the LM's structures."""

    @abc.abstractmethod
    def log_blocks_written(self) -> int:
        """Total block writes issued to the log so far (all generations)."""

    @abc.abstractmethod
    def total_log_capacity(self) -> int:
        """Configured log size in blocks (sum over generations)."""
