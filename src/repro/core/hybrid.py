"""The EL–FW hybrid sketched in the paper's concluding remarks (§6).

"Like EL, the log is segmented into a chain of FIFO queues.  Like FW, a
firewall is maintained for each queue; the oldest non-garbage record in a
queue is its firewall.  Now, the LM retains a pointer to only the oldest log
record from each transaction.  This can drastically reduce main memory
consumption if each transaction updates many objects, but at a price of
higher bandwidth.  When a transaction's oldest non-garbage log record
reaches the head of one queue, all of its log records must be regenerated
and added to the tail of the next queue because the LM does not have
pointers to know their whereabouts in the current queue."

Design notes for this implementation:

* Per transaction the LM keeps one block pointer (the oldest record's slot)
  plus the material needed to regenerate records — in a real system that
  material is the transaction's in-memory update buffer, which the paper
  already assumes exists for transaction rollback.
* Regenerated records are *new* record instances (fresh LSNs, original
  timestamps) so recovery ordering is preserved while bandwidth reflects
  the full rewrite.
* In the last queue, a transaction whose records reach the head is
  regenerated back into the same queue (recirculation by regeneration);
  a livelocked queue kills transactions exactly as EL does.
* Memory accounting: one transaction-sized entry per transaction and
  nothing per object — the point of the hybrid.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.constants import (
    BUFFERS_PER_GENERATION,
    BLOCK_PAYLOAD_BYTES,
    GAP_THRESHOLD_BLOCKS,
    LOG_WRITE_SECONDS,
)
from repro.core.flushqueue import FlushScheduler
from repro.core.generation import Generation
from repro.core.interface import CommitAckCallback, LogManager
from repro.core.killpolicy import KillPolicy
from repro.core.memory import MemoryModel
from repro.db.database import StableDatabase
from repro.disk.block import BlockImage
from repro.disk.partition import RangePartitioner
from repro.errors import ConfigurationError, LogFullError, SimulationError
from repro.faults.injector import NULL_FAULTS
from repro.obs.events import NULL_TRACE, EventStream
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.records.base import next_lsn_factory
from repro.records.data import DataLogRecord
from repro.records.tx import BeginRecord, CommitRecord
from repro.sim.engine import Simulator


class _HybridStatus(enum.Enum):
    ACTIVE = "active"
    COMMIT_PENDING = "commit_pending"
    COMMITTED = "committed"


class _HybridEntry:
    """Per-transaction state: one oldest-record pointer plus regeneration data."""

    __slots__ = (
        "tid",
        "status",
        "begin_time",
        "queue_index",
        "oldest_slot",
        "updates",
        "unflushed",
        "record_sizes",
        "commit_lsn",
        "commit_timestamp",
        "begin_timestamp",
    )

    def __init__(self, tid: int, begin_time: float):
        self.tid = tid
        self.status = _HybridStatus.ACTIVE
        self.begin_time = begin_time
        self.queue_index = 0
        self.oldest_slot: Optional[int] = None
        #: oid -> (value, original timestamp, original lsn, size)
        self.updates: Dict[int, Tuple[int, float, int, int]] = {}
        #: oids whose committed value has not been flushed yet.
        self.unflushed: Set[int] = set()
        self.record_sizes: List[int] = []
        self.commit_lsn: Optional[int] = None
        self.commit_timestamp: Optional[float] = None
        self.begin_timestamp = begin_time

    @property
    def is_live(self) -> bool:
        return self.status in (_HybridStatus.ACTIVE, _HybridStatus.COMMIT_PENDING)

    @property
    def settled(self) -> bool:
        return self.status is _HybridStatus.COMMITTED and not self.unflushed


class HybridLogManager(LogManager):
    """Per-queue firewalls with whole-transaction record regeneration."""

    def __init__(
        self,
        sim: Simulator,
        database: StableDatabase,
        *,
        queue_sizes: Sequence[int],
        flush_drives: int = 10,
        flush_write_seconds: float = 0.025,
        payload_bytes: int = BLOCK_PAYLOAD_BYTES,
        buffer_count: int = BUFFERS_PER_GENERATION,
        gap_blocks: int = GAP_THRESHOLD_BLOCKS,
        log_write_seconds: float = LOG_WRITE_SECONDS,
        kill_policy: KillPolicy = KillPolicy.BLOCKING,
        memory_model: Optional[MemoryModel] = None,
        trace: EventStream = NULL_TRACE,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        sizes = list(queue_sizes)
        if not sizes:
            raise ConfigurationError("need at least one queue")
        if any(s < gap_blocks + 1 for s in sizes):
            raise ConfigurationError(
                f"every queue needs more than the gap of {gap_blocks} blocks"
            )
        self.sim = sim
        self.database = database
        self.gap_blocks = gap_blocks
        self.kill_policy = kill_policy
        self.memory_model = memory_model or MemoryModel(
            bytes_per_transaction=40, bytes_per_object=0
        )
        self.trace = trace
        self._next_lsn = next_lsn_factory()

        #: One FIFO queue per generation (the paper's "chain of FIFO queues").
        self.generations: List[Generation] = [
            Generation(
                sim,
                index,
                size,
                payload_bytes=payload_bytes,
                buffer_count=buffer_count,
                write_seconds=log_write_seconds,
                on_block_durable=self._handle_block_durable,
                trace=trace,
                metrics=metrics,
            )
            for index, size in enumerate(sizes)
        ]
        partitioner = RangePartitioner(database.num_objects, flush_drives)
        self.scheduler = FlushScheduler(
            sim,
            database,
            partitioner,
            flush_drives,
            flush_write_seconds,
            self._handle_flush_complete,
            trace=trace,
            metrics=metrics,
        )

        self._entries: Dict[int, _HybridEntry] = {}
        #: oid -> tid of the transaction whose committed value awaits flush.
        self._unflushed_owner: Dict[int, int] = {}
        #: Per queue: slot -> tids whose oldest record lives in that slot.
        self._anchors: List[Dict[int, Set[int]]] = [dict() for _ in sizes]
        self._pending_acks: Dict[int, Tuple[int, CommitAckCallback]] = {}
        self._advancing = [False] * len(sizes)

        self.on_kill: Optional[Callable[[int, float], None]] = None
        #: Never enabled: the hybrid has no self-healing hooks.
        self.faults = NULL_FAULTS
        self.begun_count = 0
        self.committed_count = 0
        self.aborted_count = 0
        self.kill_count = 0
        self.regenerated_records = 0
        self.fresh_records = 0
        metrics.view("hybrid.begun", lambda: self.begun_count)
        metrics.view("hybrid.committed", lambda: self.committed_count)
        metrics.view("hybrid.aborted", lambda: self.aborted_count)
        metrics.view("hybrid.regenerated", lambda: self.regenerated_records)
        metrics.view("hybrid.kills", lambda: self.kill_count)

    # ==================================================================
    # LogManager API
    # ==================================================================
    def begin(self, tid: int, expected_lifetime: Optional[float] = None) -> None:
        if tid in self._entries:
            raise SimulationError(f"tid {tid} already registered")
        entry = _HybridEntry(tid, self.sim.now)
        self._entries[tid] = entry
        self.begun_count += 1
        record = BeginRecord(self._next_lsn(), tid, self.sim.now)
        self._append_fresh(entry, record)

    def log_update(self, tid: int, oid: int, value: int, size: int) -> DataLogRecord:
        entry = self._require(tid)
        if entry.status is not _HybridStatus.ACTIVE:
            raise SimulationError(f"tx {tid} is {entry.status.value}, cannot update")
        record = DataLogRecord(self._next_lsn(), tid, self.sim.now, size, oid, value)
        entry.updates[oid] = (value, record.timestamp, record.lsn, size)
        self._append_fresh(entry, record)
        return record

    def request_commit(self, tid: int, on_ack: CommitAckCallback) -> None:
        entry = self._require(tid)
        if entry.status is not _HybridStatus.ACTIVE:
            raise SimulationError(f"tx {tid} is {entry.status.value}, cannot commit")
        record = CommitRecord(self._next_lsn(), tid, self.sim.now)
        entry.status = _HybridStatus.COMMIT_PENDING
        entry.commit_lsn = record.lsn
        entry.commit_timestamp = record.timestamp
        self._pending_acks[record.lsn] = (tid, on_ack)
        self._append_fresh(entry, record)

    def abort(self, tid: int) -> None:
        entry = self._require(tid)
        if not entry.is_live:
            raise SimulationError(f"tx {tid} is {entry.status.value}, cannot abort")
        self._drop_entry(entry)
        self.aborted_count += 1

    # ==================================================================
    # Introspection
    # ==================================================================
    def memory_bytes(self) -> int:
        return self.memory_model.bytes_used(len(self._entries), 0)

    def log_blocks_written(self) -> int:
        return sum(q.blocks_written for q in self.generations)

    def total_log_capacity(self) -> int:
        return sum(q.capacity for q in self.generations)

    def live_transactions(self) -> int:
        return sum(1 for e in self._entries.values() if e.is_live)

    def durable_images(self) -> List[BlockImage]:
        """All block images currently on disk — the crash-recovery input."""
        return [image for q in self.generations for image in q.durable.values()]

    # ==================================================================
    # Internals — appending and anchoring
    # ==================================================================
    def _append_fresh(self, entry: _HybridEntry, record) -> None:
        queue = self.generations[entry.queue_index]
        address, reserved = queue.append(record)
        self.fresh_records += 1
        if entry.oldest_slot is None:
            self._anchor(entry, address.slot)
        if reserved:
            self._ensure_gap(entry.queue_index)

    def _anchor(self, entry: _HybridEntry, slot: int) -> None:
        entry.oldest_slot = slot
        self._anchors[entry.queue_index].setdefault(slot, set()).add(entry.tid)

    def _unanchor(self, entry: _HybridEntry) -> None:
        if entry.oldest_slot is None:
            return
        anchored = self._anchors[entry.queue_index].get(entry.oldest_slot)
        if anchored is not None:
            anchored.discard(entry.tid)
            if not anchored:
                del self._anchors[entry.queue_index][entry.oldest_slot]
        entry.oldest_slot = None

    # ==================================================================
    # Internals — head advancement and regeneration
    # ==================================================================
    def _ensure_gap(self, queue_index: int) -> None:
        if self._advancing[queue_index]:
            return
        self._advancing[queue_index] = True
        queue = self.generations[queue_index]
        processed = 0
        limit = 2 * queue.capacity + 8
        try:
            while queue.array.free < self.gap_blocks:
                if not self._advance_head_once(queue_index):
                    self._kill(self._oldest_live_tid())
                    continue
                processed += 1
                if processed > limit:
                    victim = self._oldest_live_tid()
                    if victim is None:
                        raise LogFullError(
                            f"hybrid queue {queue_index} livelocked with no "
                            f"live transaction to kill"
                        )
                    self._kill(victim)
                    processed = 0
        finally:
            self._advancing[queue_index] = False

    def _advance_head_once(self, queue_index: int) -> bool:
        queue = self.generations[queue_index]
        if queue.array.empty:
            return False
        if queue.head_image() is None:
            buffer = queue.head_is_open_buffer()
            if buffer is None:
                return False
            if buffer is queue.current:
                queue.seal_current()
            else:
                queue.seal_migration()
        slot = queue.array.head
        queue.free_head()
        tids = self._anchors[queue_index].pop(slot, set())
        touched: set[int] = set()
        for tid in sorted(tids):
            entry = self._entries.get(tid)
            if entry is None or entry.queue_index != queue_index:
                continue
            entry.oldest_slot = None
            touched.add(self._relocate(entry))
        # Write the regenerated group once per freed head block — sealing
        # per transaction would amplify bandwidth with near-empty blocks.
        for target_index in touched:
            self.generations[target_index].seal_migration()
        return True

    def _relocate(self, entry: _HybridEntry) -> int:
        """Regenerate every record of ``entry`` into the next queue's tail.

        Returns the target queue index so the caller can seal the
        regenerated group once the whole head block has been processed.
        """
        source_index = entry.queue_index
        last = len(self.generations) - 1
        target_index = min(source_index + 1, last)
        target = self.generations[target_index]
        entry.queue_index = target_index
        records = self._regenerate_records(entry)
        if not records:
            self._retire_if_settled(entry)
            return target_index
        first_slot: Optional[int] = None
        for record in records:
            address, reserved, _ = target.append_migrated(record)
            if first_slot is None:
                first_slot = address.slot
            self.regenerated_records += 1
            if reserved:
                self._ensure_gap(target_index)
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "hybrid",
                "regenerate",
                {
                    "tid": entry.tid,
                    "records": len(records),
                    "from": source_index,
                    "to": target_index,
                },
            )
        assert first_slot is not None
        self._anchor(entry, first_slot)
        return target_index

    def _regenerate_records(self, entry: _HybridEntry) -> list:
        """Fresh copies of all records the transaction still needs logged."""
        records: list = []
        if entry.status is _HybridStatus.COMMITTED:
            # Only the COMMIT record and unflushed updates still matter.
            for oid in sorted(entry.unflushed):
                value, timestamp, _, size = entry.updates[oid]
                records.append(
                    DataLogRecord(self._next_lsn(), entry.tid, timestamp, size, oid, value)
                )
            assert entry.commit_timestamp is not None
            records.append(
                CommitRecord(self._next_lsn(), entry.tid, entry.commit_timestamp)
            )
            return records
        records.append(BeginRecord(self._next_lsn(), entry.tid, entry.begin_timestamp))
        for oid, (value, timestamp, _, size) in sorted(entry.updates.items()):
            records.append(
                DataLogRecord(self._next_lsn(), entry.tid, timestamp, size, oid, value)
            )
        if entry.status is _HybridStatus.COMMIT_PENDING:
            assert entry.commit_timestamp is not None
            commit = CommitRecord(self._next_lsn(), entry.tid, entry.commit_timestamp)
            # The original COMMIT copy may still be in flight and can become
            # durable first; whichever copy lands first must deliver the ack
            # (recovery would already treat the transaction as committed).
            # _commit_durable no-ops on the second firing.
            assert entry.commit_lsn is not None
            pending = self._pending_acks.get(entry.commit_lsn)
            entry.commit_lsn = commit.lsn
            if pending is not None:
                self._pending_acks[commit.lsn] = pending
            records.append(commit)
        return records

    # ==================================================================
    # Internals — commit, flush, kill
    # ==================================================================
    def _handle_block_durable(self, queue: Generation, image: BlockImage) -> None:
        if not self._pending_acks:
            return
        for record in image.records:
            pending = self._pending_acks.pop(record.lsn, None)
            if pending is not None:
                self._commit_durable(*pending)

    def _commit_durable(self, tid: int, on_ack: CommitAckCallback) -> None:
        entry = self._entries.get(tid)
        if entry is None or entry.status is not _HybridStatus.COMMIT_PENDING:
            return
        entry.status = _HybridStatus.COMMITTED
        entry.commit_lsn = None
        for oid, (value, timestamp, lsn, size) in entry.updates.items():
            previous_owner = self._unflushed_owner.get(oid)
            if previous_owner is not None and previous_owner != tid:
                old = self._entries.get(previous_owner)
                if old is not None:
                    old.unflushed.discard(oid)
                    old.updates.pop(oid, None)
                    self._retire_if_settled(old)
            self._unflushed_owner[oid] = tid
            entry.unflushed.add(oid)
            self.scheduler.submit(
                DataLogRecord(lsn, tid, timestamp, size, oid, value)
            )
        self.committed_count += 1
        self._retire_if_settled(entry)
        on_ack(tid, self.sim.now)

    def _handle_flush_complete(self, record: DataLogRecord) -> None:
        owner = self._unflushed_owner.get(record.oid)
        if owner != record.tid:
            return  # superseded while in service
        del self._unflushed_owner[record.oid]
        entry = self._entries.get(record.tid)
        if entry is None:
            return
        entry.unflushed.discard(record.oid)
        entry.updates.pop(record.oid, None)
        self._retire_if_settled(entry)

    def _retire_if_settled(self, entry: _HybridEntry) -> None:
        if not entry.settled:
            return
        self._unanchor(entry)
        self._entries.pop(entry.tid, None)

    def _oldest_live_tid(self) -> Optional[int]:
        """Oldest ACTIVE transaction — COMMIT_PENDING ones are not killable
        because their COMMIT record may already be durable."""
        oldest: Optional[_HybridEntry] = None
        for entry in self._entries.values():
            if entry.status is _HybridStatus.ACTIVE and (
                oldest is None or entry.begin_time < oldest.begin_time
            ):
                oldest = entry
        return oldest.tid if oldest else None

    def _kill(self, tid: Optional[int], _unused=None) -> None:
        if tid is None:
            raise LogFullError("hybrid log out of space with nothing to kill")
        entry = self._require(tid)
        if entry.status is not _HybridStatus.ACTIVE:
            raise SimulationError(f"cannot kill {entry.status.value} tx {tid}")
        self._drop_entry(entry)
        self.kill_count += 1
        self.trace.emit(self.sim.now, "hybrid", "kill", {"tid": tid})
        if self.on_kill is not None:
            self.on_kill(tid, self.sim.now)

    def _drop_entry(self, entry: _HybridEntry) -> None:
        if entry.commit_lsn is not None:
            self._pending_acks.pop(entry.commit_lsn, None)
        self._unanchor(entry)
        self._entries.pop(entry.tid, None)

    def _require(self, tid: int) -> _HybridEntry:
        entry = self._entries.get(tid)
        if entry is None:
            raise SimulationError(f"tid {tid} has no hybrid entry")
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [q.capacity for q in self.generations]
        return f"<HybridLogManager queues={sizes} kills={self.kill_count}>"
