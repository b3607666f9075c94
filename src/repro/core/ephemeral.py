"""Ephemeral logging — the paper's primary contribution.

:class:`EphemeralLogManager` manages the log as a chain of fixed-size
generations.  New records enter a transaction's home generation (generation
0 unless a lifetime placement policy is installed).  Whenever a tail
reservation leaves fewer than ``k`` free blocks, the head advances: garbage
record copies are discarded, live records are forwarded to the next
generation (or recirculated within the last one), committed-but-unflushed
updates are demand-flushed or kept in the log per policy, and — only when
nothing else can free space — a live transaction is killed.

In tandem, a :class:`~repro.core.flushqueue.FlushScheduler` continuously
flushes committed updates to the stable database so that their records are
already garbage when they reach a head.

The firewall baseline is this same machinery restricted to one generation
with recirculation disabled (see :mod:`repro.core.firewall`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.constants import (
    BUFFERS_PER_GENERATION,
    BLOCK_PAYLOAD_BYTES,
    GAP_THRESHOLD_BLOCKS,
    LOG_WRITE_SECONDS,
)
from repro.core.cells import Cell
from repro.core.flushqueue import FlushScheduler
from repro.core.generation import Generation
from repro.core.interface import CommitAckCallback, LogManager, UnflushedHeadPolicy
from repro.core.killpolicy import KillPolicy
from repro.core.lot import LoggedObjectTable
from repro.core.ltt import LoggedTransactionTable, LttEntry, TxStatus
from repro.core.memory import MemoryModel
from repro.core.placement import LifetimePlacementPolicy
from repro.db.database import StableDatabase
from repro.disk.block import BlockImage
from repro.disk.partition import RangePartitioner
from repro.errors import ConfigurationError, LogFullError, SimulationError
from repro.faults.injector import NULL_FAULTS
from repro.obs.events import NULL_TRACE, EventStream
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.records.base import LogRecord, next_lsn_factory
from repro.records.data import DataLogRecord
from repro.records.tx import AbortRecord, BeginRecord, CommitRecord
from repro.sim.engine import Simulator


class EphemeralLogManager(LogManager):
    """The ephemeral logging manager (EL)."""

    #: Trace/metric namespace; the firewall subclass overrides it to "fw".
    trace_source = "el"

    def __init__(
        self,
        sim: Simulator,
        database: StableDatabase,
        *,
        generation_sizes: Sequence[int],
        recirculation: bool = True,
        flush_drives: int = 10,
        flush_write_seconds: float = 0.025,
        payload_bytes: int = BLOCK_PAYLOAD_BYTES,
        buffer_count: int = BUFFERS_PER_GENERATION,
        gap_blocks: int = GAP_THRESHOLD_BLOCKS,
        log_write_seconds: float = LOG_WRITE_SECONDS,
        unflushed_head_policy: UnflushedHeadPolicy = UnflushedHeadPolicy.KEEP_IN_LOG,
        kill_policy: KillPolicy = KillPolicy.BLOCKING,
        placement: Optional[LifetimePlacementPolicy] = None,
        memory_model: Optional[MemoryModel] = None,
        trace: EventStream = NULL_TRACE,
        metrics: MetricsRegistry = NULL_METRICS,
        faults=NULL_FAULTS,
        lsn_factory: Optional[Callable[[], int]] = None,
        flush_span: Optional[Tuple[int, int]] = None,
    ):
        sizes = list(generation_sizes)
        if not sizes:
            raise ConfigurationError("need at least one generation")
        if any(s < gap_blocks + 1 for s in sizes):
            raise ConfigurationError(
                f"every generation needs more than the gap of {gap_blocks} "
                f"blocks; got sizes {sizes}"
            )
        self.sim = sim
        self.database = database
        self.recirculation = recirculation
        self.gap_blocks = gap_blocks
        self.unflushed_head_policy = unflushed_head_policy
        self.kill_policy = kill_policy
        self.placement = placement
        self.memory_model = memory_model or MemoryModel.ephemeral()
        self.trace = trace
        self.metrics = metrics
        source = self.trace_source
        self._m_gap_blocks = metrics.histogram(f"{source}.gap_blocks_processed")

        # Shared across managers when several shards feed one logical log:
        # LSNs must stay globally unique or recovery's per-LSN dedup would
        # conflate records from different shards.
        self._next_lsn = lsn_factory if lsn_factory is not None else next_lsn_factory()
        self.lot = LoggedObjectTable()
        self.ltt = LoggedTransactionTable()
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
                faults=faults,
            )
            for index, size in enumerate(sizes)
        ]
        for generation in self.generations:
            generation.pre_reserve = self._pre_reserve_hook

        # A sharded log narrows ``flush_span`` to this manager's oid
        # sub-range so all of its flush drives share the shard's load;
        # the default spans the whole database.
        span_lo, span_hi = flush_span if flush_span is not None else (
            0,
            database.num_objects,
        )
        partitioner = RangePartitioner(span_hi - span_lo, flush_drives, base=span_lo)
        self.scheduler = FlushScheduler(
            sim,
            database,
            partitioner,
            flush_drives,
            flush_write_seconds,
            self._handle_flush_complete,
            trace=trace,
            metrics=metrics,
            faults=faults,
        )

        # Fault detection and self-healing (only wired when a plan injects).
        self.faults = faults
        self._fault_mode = faults.enabled
        if self._fault_mode:
            for generation in self.generations:
                generation.on_write_unresolved = self._handle_write_unresolved
                generation.on_block_lost = self._handle_block_lost
        #: LSNs whose only current copy sits in a faulted block -> owner tid.
        self._held_lsns: Dict[int, int] = {}
        #: Generations stuck at/below the safe ring size: committed records
        #: demand-flush at the head instead of migrating, and a degraded
        #: last generation stops recirculating (graceful degradation once
        #: bad-block remapping has no spare slots left).
        self._degraded = [False] * len(sizes)
        self.blocks_retired = 0
        self.records_healed = 0
        self.records_stabilised = 0
        #: Demand flushes the fault path issued (:meth:`_fault_flush_or_kill`).
        self.fault_demand_flushes = 0
        self.deferred_acks = 0

        # COMMIT LSN -> (tid, ack callback) awaiting group-commit durability.
        self._pending_acks: Dict[int, Tuple[int, CommitAckCallback]] = {}
        # Per target generation: source (gen, slot) pairs of records sitting
        # in its open migration buffer; per source generation: guarded slots.
        self._migration_sources: List[Set[Tuple[int, int]]] = [set() for _ in sizes]
        self._guarded_slots: List[Set[int]] = [set() for _ in sizes]
        self._advancing = [False] * len(sizes)
        self._pressure = [False] * len(sizes)

        # Hook the workload installs to learn about kills.
        self.on_kill: Optional[Callable[[int, float], None]] = None

        # Counters.
        self.fresh_records = 0
        self.forwarded_records = 0
        self.recirculated_records = 0
        self.garbage_copies_discarded = 0
        self.begun_count = 0
        self.committed_count = 0
        self.aborted_count = 0
        self.kill_count = 0
        self.forced_migration_seals = 0
        self.pressure_episodes = 0
        #: Head advances that processed at least one block.
        self.gap_episodes = 0
        #: Records of COMMIT_PENDING transactions recirculated in the last
        #: generation even with recirculation disabled (see
        #: :meth:`_route_head_records`).
        self.emergency_recirculations = 0

        metrics.view(f"{source}.begun", lambda: self.begun_count)
        metrics.view(f"{source}.committed", lambda: self.committed_count)
        metrics.view(f"{source}.aborted", lambda: self.aborted_count)
        metrics.view(f"{source}.forwarded", lambda: self.forwarded_records)
        metrics.view(f"{source}.recirculated", lambda: self.recirculated_records)
        metrics.view(
            f"{source}.emergency_recirculations", lambda: self.emergency_recirculations
        )
        metrics.view(f"{source}.pressure_episodes", lambda: self.pressure_episodes)
        metrics.view(
            f"{source}.forced_migration_seals", lambda: self.forced_migration_seals
        )
        # Demand flushes of the head-routing fates; the scheduler's count
        # also holds the fault path's.
        metrics.view(
            f"{source}.demand_flushes",
            lambda: self.scheduler.demand_flushes - self.fault_demand_flushes,
        )
        metrics.view(f"{source}.kills", lambda: self.kill_count)
        metrics.view(f"{source}.garbage_discarded", lambda: self.garbage_copies_discarded)
        metrics.view(f"{source}.gap_episodes", lambda: self.gap_episodes)
        if self._fault_mode:
            fault = f"{source}.fault."
            metrics.view(fault + "blocks_retired", lambda: self.blocks_retired)
            metrics.view(fault + "records_healed", lambda: self.records_healed)
            metrics.view(fault + "records_stabilised", lambda: self.records_stabilised)
            metrics.view(fault + "deferred_acks", lambda: self.deferred_acks)

    # ==================================================================
    # LogManager API
    # ==================================================================
    def begin(self, tid: int, expected_lifetime: Optional[float] = None) -> None:
        entry = self.ltt.begin(tid, self.sim.now)
        if self.placement is not None:
            entry.home_generation = self.placement.generation_for(
                expected_lifetime, len(self.generations)
            )
        record = BeginRecord(self._next_lsn(), tid, self.sim.now)
        self.begun_count += 1
        address, reserved = self.generations[entry.home_generation].append(record)
        cell = Cell(record, address)
        self.generations[entry.home_generation].cells.append_tail(cell)
        entry.tx_cell = cell
        self.fresh_records += 1
        if reserved:
            self._ensure_gap(entry.home_generation)

    def log_update(self, tid: int, oid: int, value: int, size: int) -> DataLogRecord:
        entry = self.ltt.require(tid)
        if entry.status is not TxStatus.ACTIVE:
            raise SimulationError(f"tx {tid} is {entry.status.value}, cannot update")
        record = DataLogRecord(self._next_lsn(), tid, self.sim.now, size, oid, value)
        generation = self.generations[entry.home_generation]
        address, reserved = generation.append(record)
        cell = Cell(record, address)
        generation.cells.append_tail(cell)
        self.lot.add_uncommitted(cell)
        entry.oids.add(oid)
        self.fresh_records += 1
        if reserved:
            self._ensure_gap(entry.home_generation)
        return record

    def request_commit(self, tid: int, on_ack: CommitAckCallback) -> None:
        entry = self.ltt.require(tid)
        if entry.status is not TxStatus.ACTIVE:
            raise SimulationError(f"tx {tid} is {entry.status.value}, cannot commit")
        record = CommitRecord(self._next_lsn(), tid, self.sim.now)
        generation = self.generations[entry.home_generation]
        address, reserved = generation.append(record)
        self._repoint_tx_cell(entry, record, address)
        entry.status = TxStatus.COMMIT_PENDING
        entry.commit_lsn = record.lsn
        self._pending_acks[record.lsn] = (tid, on_ack)
        self.fresh_records += 1
        if reserved:
            self._ensure_gap(entry.home_generation)

    def abort(self, tid: int) -> None:
        entry = self.ltt.require(tid)
        if entry.status is not TxStatus.ACTIVE:
            # Aborting after the COMMIT record reached the log would race
            # with group commit: the record may already be durable.
            raise SimulationError(f"tx {tid} is {entry.status.value}, cannot abort")
        # "An abort is easy to handle.  All data and tx log records from an
        # aborted transaction immediately become garbage."
        record = AbortRecord(self._next_lsn(), tid, self.sim.now)
        generation = self.generations[entry.home_generation]
        _, reserved = generation.append(record)
        self.fresh_records += 1
        self._discard_transaction(entry)
        self.aborted_count += 1
        if reserved:
            self._ensure_gap(entry.home_generation)

    # ==================================================================
    # Introspection
    # ==================================================================
    def memory_bytes(self) -> int:
        return self.memory_model.bytes_used(len(self.ltt), len(self.lot))

    def log_blocks_written(self) -> int:
        return sum(g.blocks_written for g in self.generations)

    def total_log_capacity(self) -> int:
        return sum(g.capacity for g in self.generations)

    def drain(self) -> None:
        """Seal every open buffer (used before crash points and at shutdown)."""
        for generation in self.generations:
            if generation.seal_migration():
                self._clear_migration_sources(generation.index)
            if generation.current is not None:
                generation.seal_current()

    def durable_images(self) -> List[BlockImage]:
        """All block images currently on disk — the crash-recovery input."""
        images: List[BlockImage] = []
        for generation in self.generations:
            images.extend(generation.durable.values())
        return images

    def check_invariants(self) -> None:
        """Structural invariants for tests; raises on violation."""
        for generation in self.generations:
            generation.cells.check_invariants()
            for cell in generation.cells.iter_from_head():
                if cell.record.cell is not cell:
                    raise SimulationError("linked cell lost its record")
                if cell.address.generation != generation.index:
                    raise SimulationError("cell linked under wrong generation")
        for lot_entry in self.lot.entries():
            if lot_entry.empty:
                raise SimulationError(f"empty LOT entry for oid {lot_entry.oid}")
            cells = list(lot_entry.uncommitted_cells.values())
            if lot_entry.committed_cell is not None:
                cells.append(lot_entry.committed_cell)
            for cell in cells:
                if cell.list is None:
                    raise SimulationError("LOT cell not linked in any generation")
        for entry in self.ltt.entries():
            if entry.status is TxStatus.ABORTED:
                raise SimulationError("aborted tx still in LTT")
            if entry.settled:
                raise SimulationError(f"settled tx {entry.tid} still in LTT")

    # ==================================================================
    # Head advancement
    # ==================================================================
    def _ensure_gap(self, gen_index: int) -> None:
        """Advance the head of ``gen_index`` until ``free >= gap_blocks``.

        For a non-last generation the episode ends with the paper's
        gather-and-write discipline: if any record was forwarded, the LM
        "works backward from the head to gather enough other non-garbage
        log records to fill the buffer" and then writes the forwarded group
        immediately.
        """
        if self._advancing[gen_index]:
            return
        self._advancing[gen_index] = True
        generation = self.generations[gen_index]
        processed = 0
        forwarded_before = self.forwarded_records
        pressure_threshold = generation.capacity + 4
        try:
            while generation.array.free < self.gap_blocks:
                if not self._advance_head_once(gen_index):
                    victim = self.kill_policy.choose_victim(self.ltt, None)
                    self._kill(victim, reason="unprocessable-head")
                    continue
                processed += 1
                if processed == pressure_threshold and not self._pressure[gen_index]:
                    # One full lap without restoring the gap: the generation
                    # is saturated with committed-but-unflushed records.
                    # Demand-flush them instead of recirculating before
                    # resorting to kills.
                    self._pressure[gen_index] = True
                    self.pressure_episodes += 1
                    if self.trace.enabled:
                        self.trace.emit(
                            self.sim.now,
                            self.trace_source,
                            "pressure",
                            {"generation": gen_index},
                        )
                elif processed >= 2 * pressure_threshold:
                    victim = self.kill_policy.choose_victim(self.ltt, None)
                    self._kill(victim, reason="recirculation-livelock")
                    processed = pressure_threshold
            if (
                gen_index < len(self.generations) - 1
                and self.forwarded_records > forwarded_before
            ):
                self._gather_and_seal_forwarded(gen_index)
            if processed:
                self.gap_episodes += 1
                self._m_gap_blocks.observe(processed)
                if self.trace.enabled:
                    self.trace.emit(
                        self.sim.now,
                        self.trace_source,
                        "gap_ensure",
                        {
                            "generation": gen_index,
                            "blocks_processed": processed,
                            "forwarded": self.forwarded_records - forwarded_before,
                        },
                    )
        finally:
            self._pressure[gen_index] = False
            self._advancing[gen_index] = False

    def _gather_and_seal_forwarded(self, gen_index: int) -> None:
        """Fill the next generation's migration buffer, then write it.

        Records forwarded out of generation ``gen_index`` must reach disk
        promptly because their source blocks have been reclaimed; to avoid
        writing a nearly empty block, the LM "works backward from the head"
        — along the cell list from ``h_i`` — and forwards the oldest
        non-garbage records early until the buffer is full.  Their original
        copies stay physically in place and are discarded as stale when the
        head eventually reaches them; only the blocks the gap demanded were
        actually reclaimed.
        """
        generation = self.generations[gen_index]
        target = self.generations[gen_index + 1]
        buffer = target.migration
        if buffer is None or buffer.image is None:
            return
        free_bytes = buffer.image.free_bytes
        candidates: List[Cell] = []
        demand_flush_committed = (
            self.unflushed_head_policy is UnflushedHeadPolicy.DEMAND_FLUSH
        )
        for cell in generation.cells.iter_from_head():
            record = cell.record
            if demand_flush_committed and isinstance(record, DataLogRecord):
                entry = self.ltt.get(record.tid)
                if entry is not None and entry.status is TxStatus.COMMITTED:
                    continue  # the head will flush it; don't carry it along
            if record.size > free_bytes:
                break
            candidates.append(cell)
            free_bytes -= record.size
        for cell in candidates:
            record = cell.record
            self._migrate(record, gen_index, target)
            self.forwarded_records += 1
            if self.trace.enabled:
                self.trace.emit(
                    self.sim.now,
                    self.trace_source,
                    "forward",
                    {"lsn": record.lsn, "from": gen_index, "gathered": True},
                )
        if target.seal_migration():
            self._clear_migration_sources(target.index)

    def _advance_head_once(self, gen_index: int) -> bool:
        generation = self.generations[gen_index]
        if generation.array.empty:
            return False
        if generation.head_image() is None:
            buffer = generation.head_is_open_buffer()
            if buffer is None:
                return False
            if buffer is generation.current:
                generation.seal_current()
            else:
                generation.seal_migration()
                self._clear_migration_sources(gen_index)
        image = generation.free_head()
        self._route_head_records(gen_index, image)
        return True

    def _route_head_records(self, gen_index: int, image: BlockImage) -> None:
        """Give each live record copy at the head one of the paper's fates.

        A record is forwarded to the next generation, recirculated within
        the last one, demand-flushed (a committed update, or the updates of
        a committed transaction whose tx record is at the head) or killed
        with its transaction.  The last generation recirculates only while
        recirculation is on and fault remapping has not shrunk it to the
        safety floor: a degraded ring has no room to recirculate into.
        """
        last = len(self.generations) - 1
        recirculates = self.recirculation and not self._degraded[last]
        traced = self.trace.enabled
        for record in image.records:
            cell = record.cell
            if cell is None or cell.address != image.address:
                # Garbage, or a stale copy of a record that moved on.
                self.garbage_copies_discarded += 1
                continue
            entry = self.ltt.get(record.tid)
            if entry is None:
                raise SimulationError(
                    f"live record lsn={record.lsn} has no LTT entry"
                )
            if gen_index == last and not recirculates:
                if not self._flush_or_kill(
                    record, entry, gen_index, "head-of-last-generation"
                ):
                    self._recirculate_pending(record, entry, gen_index)
                continue
            if (
                isinstance(record, DataLogRecord)
                and entry.status is TxStatus.COMMITTED
                and (
                    self.unflushed_head_policy is UnflushedHeadPolicy.DEMAND_FLUSH
                    or self._pressure[gen_index]
                    or self._degraded[gen_index]
                )
            ):
                self._demand_flush(record, gen_index)
                continue
            if gen_index < last:
                if not self._migrate_or_evacuate(
                    record, entry, gen_index, self.generations[gen_index + 1]
                ):
                    continue
                self.forwarded_records += 1
                if traced:
                    self.trace.emit(
                        self.sim.now,
                        self.trace_source,
                        "forward",
                        {"lsn": record.lsn, "from": gen_index, "gathered": False},
                    )
            else:
                if not self._migrate_or_evacuate(
                    record, entry, gen_index, self.generations[gen_index]
                ):
                    continue
                self.recirculated_records += 1
                if traced:
                    self.trace.emit(
                        self.sim.now,
                        self.trace_source,
                        "recirculate",
                        {"lsn": record.lsn, "generation": gen_index},
                    )

    def _flush_or_kill(
        self, record: LogRecord, entry: LttEntry, gen_index: int, reason: str
    ) -> bool:
        """Make ``record`` garbage by the fates that need no log space.

        A committed update is demand-flushed, a committed transaction
        settles by flushing its remaining updates, and an active
        transaction is killed (for ``reason``).  Returns ``False`` for a
        COMMIT_PENDING record, which can take none of them: its COMMIT
        record is on its way to disk, so it is not yet durable enough to
        flush and already too far along to kill.
        """
        status = entry.status
        if status is TxStatus.COMMITTED:
            if isinstance(record, DataLogRecord):
                self._demand_flush(record, gen_index)
            else:
                self._settle_by_demand_flush(entry)
            return True
        if status is TxStatus.ACTIVE:
            while record.cell is not None:
                victim = self.kill_policy.choose_victim(self.ltt, record.tid)
                self._kill(victim, reason=reason)
            return True
        return False

    def _demand_flush(self, record: DataLogRecord, gen_index: int) -> None:
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                self.trace_source,
                "demand_flush",
                {"lsn": record.lsn, "oid": record.oid, "generation": gen_index},
            )
        self.scheduler.demand_flush(record)

    def _recirculate_pending(
        self, record: LogRecord, entry: LttEntry, gen_index: int
    ) -> None:
        """Keep a COMMIT_PENDING record from a freed head slot in the log.

        It cannot be flushed or killed (:meth:`_flush_or_kill`), so it
        moves into its own generation, whose head has just freed a slot,
        for the short group-commit window.  Only when fault remapping has
        left that ring with no free slot at all does it stay behind, and
        then under a durability hold: the tail may reuse its slot, so its
        commit must not be acknowledged on the strength of that copy.
        """
        try:
            self._migrate(record, gen_index, self.generations[gen_index])
        except LogFullError:
            if not self._fault_mode:
                raise
            self._add_hold(record, entry)
            return
        self.emergency_recirculations += 1
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                self.trace_source,
                "emergency_recirculate",
                {"lsn": record.lsn, "generation": gen_index},
            )

    def _migrate_or_evacuate(
        self,
        record: LogRecord,
        entry: LttEntry,
        gen_index: int,
        target: Generation,
    ) -> bool:
        """Migrate ``record``; if a fault-shrunk target is full, evacuate it.

        Fault injection can remap blocks out of a ring faster than the head
        drains it, so a migration target may genuinely have no tail block
        to reserve — something the fault-free space invariants rule out.
        The record then takes a fate that needs no log space
        (:meth:`_flush_or_kill`).  A COMMIT_PENDING record can take none:
        leaving a head for another generation it recirculates in its own
        (:meth:`_recirculate_pending`); otherwise it stays under a
        durability hold, so its commit acknowledgement waits, which is
        sound: losing an *unacknowledged* commit at a crash is permitted.
        Returns whether the record moved to ``target``.

        Without fault injection the space invariants hold and a full ring
        is a *deliberate* signal (``KillPolicy.FORBID``), so the error
        propagates untouched.
        """
        try:
            self._migrate(record, gen_index, target)
            return True
        except LogFullError:
            if not self._fault_mode:
                raise
        if entry.status is TxStatus.COMMIT_PENDING:
            if target.index != gen_index:
                self._recirculate_pending(record, entry, gen_index)
            else:
                self._add_hold(record, entry)
            return False
        self._fault_flush_or_kill(record, entry, gen_index)
        return False

    def _fault_flush_or_kill(
        self, record: LogRecord, entry: LttEntry, gen_index: int
    ) -> None:
        """:meth:`_flush_or_kill` for a record the fault path must move.

        Its demand flushes (a committed update's, or those that settle a
        committed transaction) are counted apart, so that the manager's
        ``demand_flushes`` view holds the head-routing ones only.
        """
        if isinstance(record, DataLogRecord) and entry.status is TxStatus.COMMITTED:
            self.records_stabilised += 1
        before = self.scheduler.demand_flushes
        self._flush_or_kill(record, entry, gen_index, "fault-heal-no-space")
        self.fault_demand_flushes += self.scheduler.demand_flushes - before

    def _migrate(self, record: LogRecord, source_index: int, target: Generation) -> None:
        cell = record.cell
        assert cell is not None
        source_slot = cell.address.slot
        address, reserved, sealed_full = target.append_migrated(record)
        if sealed_full:
            self._clear_migration_sources(target.index)
        self._migration_sources[target.index].add((source_index, source_slot))
        self._guarded_slots[source_index].add(source_slot)
        assert cell.list is not None
        cell.list.remove(cell)
        cell.address = address
        target.cells.append_tail(cell)
        if reserved:
            self._ensure_gap(target.index)

    # ==================================================================
    # Migration-buffer safety
    # ==================================================================
    def _pre_reserve_hook(self, generation: Generation, slot: int) -> None:
        """Seal migration buffers whose source slot is about to be reused."""
        if slot not in self._guarded_slots[generation.index]:
            return
        source_index = generation.index
        for target_index, sources in enumerate(self._migration_sources):
            if any(src_gen == source_index and src_slot == slot for src_gen, src_slot in sources):
                target = self.generations[target_index]
                if target.seal_migration():
                    self.forced_migration_seals += 1
                self._clear_migration_sources(target_index)

    def _clear_migration_sources(self, target_index: int) -> None:
        sources = self._migration_sources[target_index]
        if not sources:
            return
        self._migration_sources[target_index] = set()
        self._rebuild_guarded_slots()

    def _rebuild_guarded_slots(self) -> None:
        for guarded in self._guarded_slots:
            guarded.clear()
        for sources in self._migration_sources:
            for src_gen, src_slot in sources:
                self._guarded_slots[src_gen].add(src_slot)

    # ==================================================================
    # Fault detection and self-healing
    # ==================================================================
    def _add_hold(self, record: LogRecord, entry: LttEntry) -> None:
        """Mark ``record`` as currently having no durable copy."""
        if record.lsn in self._held_lsns:
            return
        self._held_lsns[record.lsn] = entry.tid
        entry.durability_holds += 1

    def _release_hold(self, lsn: int) -> None:
        tid = self._held_lsns.pop(lsn, None)
        if tid is None:
            return
        entry = self.ltt.get(tid)
        if entry is None:
            return
        if entry.durability_holds > 0:
            entry.durability_holds -= 1
        if entry.durability_holds == 0 and entry.deferred_ack is not None:
            on_ack = entry.deferred_ack
            entry.deferred_ack = None
            self._commit_durable(entry.tid, on_ack)

    def _handle_write_unresolved(self, generation: Generation, image: BlockImage) -> None:
        """A block's first write attempt failed; stabilise its records.

        While the block retries, an older durable copy of any of its records
        could be physically overwritten (head reclamation reuses slots), so
        the faulted copy must be treated as the *only* copy right now:
        see :meth:`_stabilise_block`.
        """
        stabilised = self._stabilise_block(generation, image)
        if stabilised and self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "fault",
                "stabilise",
                {
                    "generation": generation.index,
                    "slot": image.address.slot,
                    "records": stabilised,
                },
            )

    def _stabilise_block(self, generation: Generation, image: BlockImage) -> int:
        """Make ``image``'s records safe without trusting its disk copy.

        Committed records are flushed into the stable database (once
        installed they need no log copy at all); records of live
        transactions take a durability hold, deferring the commit
        acknowledgement until a durable copy exists again.  Returns the
        number of committed records stabilised.
        """
        stabilised = 0
        for record, entry in self._live_copies(image):
            if entry.status is TxStatus.COMMITTED:
                self._fault_flush_or_kill(record, entry, generation.index)
                stabilised += 1
            else:
                self._add_hold(record, entry)
        return stabilised

    def _live_copies(self, image: BlockImage) -> Iterator[Tuple[LogRecord, LttEntry]]:
        """Each record whose current copy is ``image``, with its LTT entry."""
        for record in image.records:
            cell = record.cell
            if cell is None or cell.address != image.address:
                continue  # garbage or a copy that moved on
            entry = self.ltt.get(record.tid)
            if entry is None:
                raise SimulationError(
                    f"live record lsn={record.lsn} has no LTT entry"
                )
            yield record, entry

    def _handle_block_lost(
        self, generation: Generation, image: BlockImage, cause: str
    ) -> None:
        """A block's content is lost: remap its slot and relocate its records.

        ``cause`` is ``"write_failed"`` (the retry budget ran out, so the
        block never became durable) or ``"latent"`` (a durable block is
        decaying; scrub model: still readable now, and the generation marks
        it unreadable afterwards).  The records are stabilised, then the
        live ones migrate to a fresh tail block of the same generation,
        where their holds release once the new copy is durable.  A record
        that finds no room there is evacuated (:meth:`_migrate_or_evacuate`).
        """
        self._retire_slot(generation, image.address.slot)
        self._stabilise_block(generation, image)
        healed = 0
        for record, entry in self._live_copies(image):
            if self._migrate_or_evacuate(record, entry, generation.index, generation):
                healed += 1
        if healed:
            self.records_healed += healed
            # The relocated copies must reach disk promptly — their old
            # copies are gone (failed write) or decaying (latent error).
            if generation.seal_migration():
                self._clear_migration_sources(generation.index)
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "fault",
                "heal",
                {
                    "generation": generation.index,
                    "slot": image.address.slot,
                    "records": healed,
                    "cause": cause,
                },
            )

    def _retire_slot(self, generation: Generation, slot: int) -> None:
        """Remap ``slot`` out of the ring if the safety floor allows it.

        Shrinking re-derives the k-gap margin: the ring must keep at least
        ``gap_blocks + 1`` usable slots (one block of content plus the
        paper's head/tail separation).  Near the floor the generation
        degrades: its head demand-flushes committed records instead of
        migrating them, and a degraded last generation stops recirculating,
        which caps the space the log needs.
        """
        array = generation.array
        if array.usable_capacity - 1 <= self.gap_blocks:
            self._set_degraded(generation.index, array.usable_capacity)
            return
        array.retire(slot)
        self.blocks_retired += 1
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "fault",
                "remap",
                {
                    "generation": generation.index,
                    "slot": slot,
                    "usable": array.usable_capacity,
                },
            )
        if array.usable_capacity <= self.gap_blocks + 3:
            self._set_degraded(generation.index, array.usable_capacity)

    def _set_degraded(self, gen_index: int, usable: int) -> None:
        if self._degraded[gen_index]:
            return
        self._degraded[gen_index] = True
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "fault",
                "degrade",
                {"generation": gen_index, "usable": usable},
            )

    def fault_report(self) -> Dict[str, object]:
        """JSON-ready summary of fault handling (fault-injected runs only)."""
        return {
            "write_faults": sum(g.write_faults for g in self.generations),
            "write_retries": sum(g.write_retries for g in self.generations),
            "failed_writes": sum(g.failed_writes for g in self.generations),
            "latent_faults": sum(g.latent_faults for g in self.generations),
            "blocks_retired": self.blocks_retired,
            "retired_by_generation": [
                list(g.array.retired_slots) for g in self.generations
            ],
            "records_healed": self.records_healed,
            "records_stabilised": self.records_stabilised,
            "deferred_acks": self.deferred_acks,
            "outstanding_holds": len(self._held_lsns),
            # A hold is legitimate while its transaction is still on the
            # books (a deferred, never-acknowledged commit may stay held
            # through end-of-run); one whose transaction is *gone* is a
            # leak.  This must always be zero.
            "stranded_holds": sum(
                1 for tid in self._held_lsns.values()
                if self.ltt.get(tid) is None
            ),
            "degraded_generations": [
                index for index, flag in enumerate(self._degraded) if flag
            ],
            "flush_requeues": self.scheduler.flush_requeues,
            "flush_drive_faults": sum(
                d.stats.faults for d in self.scheduler.drives
            ),
        }

    # ==================================================================
    # Commit / flush / kill plumbing
    # ==================================================================
    def _handle_block_durable(self, generation: Generation, image: BlockImage) -> None:
        if self._held_lsns:
            # A record held for durability is safe again once its *current*
            # copy is on disk; release before the ack pass so a commit whose
            # last hold clears in this very block can acknowledge.
            for record in image.records:
                if record.lsn in self._held_lsns:
                    cell = record.cell
                    if cell is not None and cell.address == image.address:
                        self._release_hold(record.lsn)
        if not self._pending_acks:
            return
        for record in image.records:
            pending = self._pending_acks.pop(record.lsn, None)
            if pending is not None:
                self._commit_durable(*pending)

    def _commit_durable(self, tid: int, on_ack: CommitAckCallback) -> None:
        entry = self.ltt.get(tid)
        if entry is None or entry.status is not TxStatus.COMMIT_PENDING:
            return  # the transaction was killed while the write was in flight
        if entry.durability_holds > 0:
            # Some of this transaction's records currently have no durable
            # copy (their block is retrying or relocating after a fault).
            # Acking now would promise durability the log cannot deliver;
            # park the ack until every hold releases.
            if entry.deferred_ack is None:
                self.deferred_acks += 1
                if self.trace.enabled:
                    self.trace.emit(
                        self.sim.now,
                        "fault",
                        "ack_deferred",
                        {"tid": tid, "holds": entry.durability_holds},
                    )
            entry.deferred_ack = on_ack
            return
        entry.status = TxStatus.COMMITTED
        entry.commit_time = self.sim.now
        entry.commit_lsn = None
        for oid in list(entry.oids):
            committed, superseded = self.lot.promote_on_commit(tid, oid)
            if superseded is not None:
                # "If a data log record for an earlier committed update
                # existed, it is now garbage."
                old_record = superseded.record
                self._dispose_cell(superseded)
                old_entry = self.ltt.get(old_record.tid)
                if old_entry is not None:
                    old_entry.oids.discard(oid)
                    self._maybe_settle(old_entry)
            self.scheduler.submit(committed.record)
        self.committed_count += 1
        self._maybe_settle(entry)
        on_ack(tid, self.sim.now)

    def _handle_flush_complete(self, record: DataLogRecord) -> None:
        cell = record.cell
        if cell is None:
            return  # superseded (or already demand-flushed) while in service
        lot_entry = self.lot.get(record.oid)
        if lot_entry is None or lot_entry.committed_cell is not cell:
            return
        self.lot.drop_committed(lot_entry)
        self._dispose_cell(cell)
        entry = self.ltt.get(record.tid)
        if entry is not None:
            entry.oids.discard(record.oid)
            self._maybe_settle(entry)

    def _settle_by_demand_flush(self, entry: LttEntry) -> None:
        for oid in list(entry.oids):
            lot_entry = self.lot.get(oid)
            assert lot_entry is not None and lot_entry.committed_cell is not None
            record = lot_entry.committed_cell.record
            assert isinstance(record, DataLogRecord)
            if self.trace.enabled:
                self.trace.emit(
                    self.sim.now,
                    self.trace_source,
                    "demand_flush",
                    {"lsn": record.lsn, "oid": record.oid, "settling": entry.tid},
                )
            self.scheduler.demand_flush(record)

    def _kill(self, tid: int, reason: str) -> None:
        """Kill an active transaction to reclaim log space."""
        entry = self.ltt.require(tid)
        if entry.status is not TxStatus.ACTIVE:
            raise SimulationError(
                f"cannot kill {entry.status.value} tx {tid}: once its COMMIT "
                f"record reaches the log its fate belongs to the disk"
            )
        self._discard_transaction(entry)
        self.kill_count += 1
        self.trace.emit(
            self.sim.now, self.trace_source, "kill", {"tid": tid, "reason": reason}
        )
        if self.on_kill is not None:
            self.on_kill(tid, self.sim.now)

    def _discard_transaction(self, entry: LttEntry) -> None:
        """Garbage every record of a live transaction and drop its entry."""
        for oid in list(entry.oids):
            cell = self.lot.drop_uncommitted(entry.tid, oid)
            self._dispose_cell(cell)
        entry.oids.clear()
        if entry.commit_lsn is not None:
            self._pending_acks.pop(entry.commit_lsn, None)
            entry.commit_lsn = None
        if entry.tx_cell is not None:
            self._dispose_cell(entry.tx_cell)
            entry.tx_cell = None
        entry.status = TxStatus.ABORTED
        self.ltt.remove(entry.tid)

    def _maybe_settle(self, entry: LttEntry) -> None:
        """Retire a committed transaction once all its updates are flushed."""
        # ``entry.settled``, spelled out: this runs after every flush.
        if entry.oids or entry.status is not TxStatus.COMMITTED:
            return
        if entry.tx_cell is not None:
            self._dispose_cell(entry.tx_cell)
            entry.tx_cell = None
        self.ltt.remove(entry.tid)

    def _repoint_tx_cell(self, entry: LttEntry, record: LogRecord, address) -> None:
        """Move the tx cell onto a newer tx record (paper §2.3 + footnote 4)."""
        cell = entry.tx_cell
        assert cell is not None
        if self._held_lsns and cell.record.lsn in self._held_lsns:
            # The superseded tx record becomes garbage; recovery no longer
            # needs a durable copy of it.
            self._release_hold(cell.record.lsn)
        if cell.list is not None:
            cell.list.remove(cell)
        cell.repoint(record, address)
        self.generations[address.generation].cells.append_tail(cell)

    def _dispose_cell(self, cell: Cell) -> None:
        if self._held_lsns and cell.record.lsn in self._held_lsns:
            # Garbage records need no durable copy; drop the hold.
            self._release_hold(cell.record.lsn)
        if cell.list is not None:
            cell.list.remove(cell)
        if cell.record.cell is cell:
            cell.record.cell = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [g.capacity for g in self.generations]
        return (
            f"<EphemeralLogManager generations={sizes} "
            f"recirculation={self.recirculation} kills={self.kill_count}>"
        )
