"""Sharded multi-disk logging: N independent log shards, one commit rule.

The paper's Figure 5 shows both techniques saturating a single log disk's
bandwidth, so throughput is capped no matter how effective the garbage
collection is.  :class:`ShardedLogManager` scales *out* instead: it runs N
complete EL chains (or FW logs), each on its own simulated disk with its
own generations, flush scheduler and tables, and routes every update to
the shard owning its object — the same range geometry
:class:`~repro.disk.partition.RangePartitioner` already uses for the
stable-database drives.

Transactions may touch several shards.  Correctness then needs a global
commit rule (cf. per-partition logs with a global commit decision in
adaptive logging): a COMMIT record is appended to *every* shard the
transaction touched, and the commit acknowledgement fires only when each
of those COMMIT records is durable.  The rule is implemented as a per-tx
shard *vote table* — each shard's group-commit durability callback clears
one vote, and the last vote acknowledges — so a single-shard transaction
(one COMMIT, one vote) keeps exactly the latency it has today on the
single-disk managers.

Recovery needs no changes: all shards share one LSN sequence (so the
per-LSN dedup in :class:`~repro.recovery.analyzer.LogScan` never conflates
records from different shards), a transaction with any durable COMMIT and
no durable ABORT is a winner, and a cross-shard transaction caught between
its first and last durable COMMIT at a crash recovers as a durably-logged
committed transaction — admissible, because its acknowledgement had not
fired yet.

Fault injection stays seed-reproducible per shard: each shard draws from
substreams keyed ``shard{i}/faults/...``, so adding a shard never perturbs
another shard's fault schedule.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.constants import (
    BLOCK_PAYLOAD_BYTES,
    BUFFERS_PER_GENERATION,
    GAP_THRESHOLD_BLOCKS,
    LOG_WRITE_SECONDS,
)
from repro.core.build import build_manager
from repro.core.ephemeral import EphemeralLogManager
from repro.core.interface import CommitAckCallback, LogManager, UnflushedHeadPolicy
from repro.core.killpolicy import KillPolicy
from repro.core.ltt import TxStatus
from repro.db.database import StableDatabase
from repro.disk.block import BlockImage
from repro.disk.partition import RangePartitioner
from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import FaultPlan
from repro.obs.events import NULL_TRACE, EventStream
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.records.base import next_lsn_factory
from repro.records.data import DataLogRecord
from repro.sim.engine import Simulator


class _PrefixedRng:
    """A shard-keyed view of :class:`~repro.sim.rng.SimRng`.

    ``stream(name)`` maps to ``stream("shard{i}/name")`` on the base rng,
    so every shard's fault draws come from their own deterministic
    substreams and chaos runs stay reproducible per seed regardless of the
    shard count.
    """

    __slots__ = ("_base", "_prefix")

    def __init__(self, base, prefix: str):
        self._base = base
        self._prefix = prefix

    def stream(self, name: str):
        return self._base.stream(f"{self._prefix}/{name}")


class _PrefixedMetrics:
    """Per-shard metric labels: ``el.forwarded`` becomes ``s0.el.forwarded``.

    Without the prefix every shard would register the same metric names:
    the registry refuses a second view of a name, and would hand every
    shard one shared histogram, silently merging per-shard samples.
    """

    __slots__ = ("_base", "_prefix")

    def __init__(self, base: MetricsRegistry, prefix: str):
        self._base = base
        self._prefix = prefix

    @property
    def enabled(self) -> bool:
        return self._base.enabled

    def view(self, name: str, read, peak=None) -> None:
        self._base.view(self._prefix + name, read, peak)

    def histogram(self, name: str):
        return self._base.histogram(self._prefix + name)


class _ShardTrace:
    """Trace view that stamps every event with its shard index.

    Sources and kinds are left untouched (so the schema registry and
    EL/FW trace comparisons keep working); the shard identity rides in the
    detail payload.
    """

    __slots__ = ("_base", "_shard")

    def __init__(self, base: EventStream, shard: int):
        self._base = base
        self._shard = shard

    @property
    def enabled(self) -> bool:
        return self._base.enabled

    def emit(self, time: float, source: str, kind: str, detail=None) -> None:
        if not self._base.enabled:
            return
        if detail is None:
            detail = {"shard": self._shard}
        elif isinstance(detail, dict):
            detail = {**detail, "shard": self._shard}
        self._base.emit(time, source, kind, detail)


class _AggregateFlushView:
    """One scheduler-shaped facade over every shard's flush scheduler.

    The harness reads backlog/completed/seek statistics off
    ``manager.scheduler``; this view sums them across shards so sharded
    results drop into the same :class:`SimulationResult` fields.
    """

    __slots__ = ("_schedulers",)

    def __init__(self, schedulers):
        self._schedulers = list(schedulers)

    def backlog(self) -> int:
        return sum(s.backlog() for s in self._schedulers)

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self._schedulers)

    @property
    def demand_flushes(self) -> int:
        return sum(s.demand_flushes for s in self._schedulers)

    @property
    def peak_backlog(self) -> int:
        # Sum of per-shard peaks: an upper bound on the true simultaneous
        # peak (the shards need not peak at the same instant).
        return sum(s.peak_backlog for s in self._schedulers)

    @property
    def drives(self):
        return [d for s in self._schedulers for d in s.drives]

    def mean_seek_distance(self) -> float:
        total = sum(
            d.stats.seek_distance_total for s in self._schedulers for d in s.drives
        )
        samples = sum(
            d.stats.seek_samples for s in self._schedulers for d in s.drives
        )
        return total / samples if samples else 0.0


class _AggregateFaultView:
    """Summed per-shard injector counters behind the injector interface."""

    __slots__ = ("_injectors", "enabled")

    def __init__(self, injectors):
        self._injectors = list(injectors)
        self.enabled = bool(self._injectors)

    def counters_snapshot(self) -> dict:
        totals: Dict[str, int] = {}
        for injector in self._injectors:
            for key, value in injector.counters_snapshot().items():
                totals[key] = totals.get(key, 0) + value
        return totals


class _SummedLen:
    """``len()`` view over several tables (the sampler's LOT/LTT probes)."""

    __slots__ = ("_parts",)

    def __init__(self, parts):
        self._parts = parts

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)


class _TxState:
    """Vote table entry: which shards a transaction touched and still owes."""

    __slots__ = ("tid", "lifetime", "began", "votes", "on_ack", "killed")

    def __init__(self, tid: int, lifetime: Optional[float]):
        self.tid = tid
        self.lifetime = lifetime
        #: Shards the transaction has a BEGIN record on.
        self.began: Set[int] = set()
        #: Shards whose COMMIT record is not yet durable (commit phase only).
        self.votes: Set[int] = set()
        self.on_ack: Optional[CommitAckCallback] = None
        self.killed = False


class ShardedLogManager(LogManager):
    """N independent log shards behind one :class:`LogManager` interface."""

    trace_source = "shard"

    def __init__(
        self,
        sim: Simulator,
        database: StableDatabase,
        *,
        shard_count: int,
        technique: str = "el",
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
        placement_boundaries: Optional[Sequence[float]] = None,
        fault_plan: Optional[FaultPlan] = None,
        rng=None,
        trace: EventStream = NULL_TRACE,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        if shard_count < 1:
            raise ConfigurationError(f"need >=1 shard, got {shard_count}")
        if technique not in ("el", "fw"):
            raise ConfigurationError(
                f"sharding supports 'el' and 'fw', got {technique!r}"
            )
        if fault_plan is not None and fault_plan.any_enabled and rng is None:
            raise ConfigurationError(
                "an enabled fault plan needs the run rng for per-shard substreams"
            )
        self.sim = sim
        self.database = database
        self.shard_count = shard_count
        self.technique = technique
        self.trace = trace
        #: tx -> shard routing reuses the flush layer's range geometry: the
        #: shard owning an update is the shard owning its object.
        self.router = RangePartitioner(database.num_objects, shard_count)

        # One LSN sequence across all shards: recovery dedupes by LSN.
        lsn_factory = next_lsn_factory()

        self.shards: List[EphemeralLogManager] = []
        for index in range(shard_count):
            shard = build_manager(
                sim,
                database,
                technique=technique,
                generation_sizes=generation_sizes,
                recirculation=recirculation,
                unflushed_head_policy=unflushed_head_policy,
                placement_boundaries=placement_boundaries,
                fault_plan=fault_plan,
                rng=_PrefixedRng(rng, f"shard{index}"),
                metrics=_PrefixedMetrics(metrics, f"s{index}."),
                trace=_ShardTrace(trace, index),
                flush_drives=flush_drives,
                flush_write_seconds=flush_write_seconds,
                payload_bytes=payload_bytes,
                buffer_count=buffer_count,
                gap_blocks=gap_blocks,
                log_write_seconds=log_write_seconds,
                kill_policy=kill_policy,
                lsn_factory=lsn_factory,
                flush_span=self.router.range_of(index),
            )
            shard.on_kill = self._kill_handler(index)
            self.shards.append(shard)

        self.faults = _AggregateFaultView(
            s.faults for s in self.shards if s.faults.enabled
        )
        self.scheduler = _AggregateFlushView(s.scheduler for s in self.shards)

        #: Per-tx vote table; entries exist from ``begin`` until the commit
        #: acknowledges, the transaction aborts, or a shard kills it.
        self._txes: Dict[int, _TxState] = {}

        self.on_kill: Optional[Callable[[int, float], None]] = None

        # Top-level counters (the per-shard managers keep their own).
        self.begun_count = 0
        self.committed_count = 0
        self.aborted_count = 0
        self.kill_count = 0
        self.single_shard_commits = 0
        self.cross_shard_commits = 0
        metrics.view("shard.begun", lambda: self.begun_count)
        metrics.view("shard.committed", lambda: self.committed_count)
        metrics.view("shard.aborted", lambda: self.aborted_count)
        metrics.view("shard.kills", lambda: self.kill_count)
        metrics.view("shard.cross_shard_commits", lambda: self.cross_shard_commits)
        metrics.view("shard.single_shard_commits", lambda: self.single_shard_commits)

    # ==================================================================
    # LogManager API
    # ==================================================================
    def begin(self, tid: int, expected_lifetime: Optional[float] = None) -> None:
        if tid in self._txes:
            raise SimulationError(f"tx {tid} already begun")
        # The BEGIN record is written lazily, per shard, at first touch:
        # each shard's log stays self-contained (recovery can scan shards
        # independently) and an untouched shard carries no record at all.
        tx = _TxState(tid, expected_lifetime)
        self._txes[tid] = tx
        self.begun_count += 1
        if self.shard_count == 1:
            # With one shard the touched set is known a priori, so the
            # first touch happens now — keeping the BEGIN record at the
            # exact instant the single-disk managers write it (the
            # byte-identity contract for shards=1).
            self._touch(tx, 0)

    def log_update(self, tid: int, oid: int, value: int, size: int) -> DataLogRecord:
        tx = self._require(tid)
        shard_index = self.router.drive_of(oid)
        self._touch(tx, shard_index)
        return self.shards[shard_index].log_update(tid, oid, value, size)

    def request_commit(self, tid: int, on_ack: CommitAckCallback) -> None:
        tx = self._require(tid)
        if tx.on_ack is not None:
            raise SimulationError(f"tx {tid} already has a commit in flight")
        if not tx.began:
            # An update-free transaction still needs one durable COMMIT;
            # give it a deterministic home shard.
            self._touch(tx, tid % self.shard_count)
        tx.votes = set(tx.began)
        tx.on_ack = on_ack
        if len(tx.votes) > 1:
            self.cross_shard_commits += 1
            if self.trace.enabled:
                self.trace.emit(
                    self.sim.now,
                    "shard",
                    "cross_commit",
                    {"tid": tid, "shards": sorted(tx.votes)},
                )
        else:
            self.single_shard_commits += 1
        for shard_index in sorted(tx.votes):
            if tx.killed:
                # Appending a COMMIT on an earlier shard advanced a head
                # there, which can cascade into killing this very
                # transaction on a shard it is still ACTIVE on.  The kill
                # handler already tore the transaction down; stop issuing
                # COMMITs for it.
                break
            self.shards[shard_index].request_commit(
                tid, self._vote_callback(shard_index)
            )

    def abort(self, tid: int) -> None:
        tx = self._require(tid)
        if tx.on_ack is not None:
            raise SimulationError(f"tx {tid} is committing, cannot abort")
        del self._txes[tid]
        for shard_index in sorted(tx.began):
            self.shards[shard_index].abort(tid)
        self.aborted_count += 1

    # ==================================================================
    # Routing and the vote table
    # ==================================================================
    def _require(self, tid: int) -> _TxState:
        tx = self._txes.get(tid)
        if tx is None:
            raise SimulationError(f"tx {tid} is not active")
        return tx

    def _touch(self, tx: _TxState, shard_index: int) -> None:
        if shard_index in tx.began:
            return
        tx.began.add(shard_index)
        self.shards[shard_index].begin(tx.tid, expected_lifetime=tx.lifetime)

    def _vote_callback(self, shard_index: int) -> CommitAckCallback:
        def _vote(tid: int, when: float) -> None:
            tx = self._txes.get(tid)
            if tx is None:
                return  # killed while this shard's COMMIT was in flight
            tx.votes.discard(shard_index)
            if tx.votes:
                return
            on_ack = tx.on_ack
            assert on_ack is not None
            del self._txes[tid]
            self.committed_count += 1
            on_ack(tid, when)

        return _vote

    def _kill_handler(self, shard_index: int) -> Callable[[int, float], None]:
        def _killed(tid: int, when: float) -> None:
            self._handle_inner_kill(shard_index, tid, when)

        return _killed

    def _handle_inner_kill(self, shard_index: int, tid: int, when: float) -> None:
        """One shard killed ``tid``; propagate the abort to its other shards.

        The originating shard already discarded the transaction locally.
        On every other shard where it is still ACTIVE an ABORT record is
        appended (which outranks any COMMIT record at recovery); shards
        where its COMMIT is already in flight are left alone — losing an
        unacknowledged commit is permitted, and the vote table entry is
        gone, so a late durability vote is simply ignored.
        """
        tx = self._txes.pop(tid, None)
        if tx is None:
            return  # cascade re-entry for a transaction already torn down
        tx.killed = True
        for other in sorted(tx.began):
            if other == shard_index:
                continue
            shard = self.shards[other]
            entry = shard.ltt.get(tid)
            if entry is not None and entry.status is TxStatus.ACTIVE:
                shard.abort(tid)
        self.kill_count += 1
        if self.on_kill is not None:
            self.on_kill(tid, when)

    # ==================================================================
    # Introspection (the harness reads these off any manager)
    # ==================================================================
    @property
    def lot(self) -> _SummedLen:
        return _SummedLen([s.lot for s in self.shards])

    @property
    def ltt(self) -> _SummedLen:
        return _SummedLen([s.ltt for s in self.shards])

    @property
    def generations(self):
        """All shards' generations, shard-major (the crash-capture view)."""
        return [g for shard in self.shards for g in shard.generations]

    @property
    def fresh_records(self) -> int:
        return sum(s.fresh_records for s in self.shards)

    @property
    def forwarded_records(self) -> int:
        return sum(s.forwarded_records for s in self.shards)

    @property
    def recirculated_records(self) -> int:
        return sum(s.recirculated_records for s in self.shards)

    @property
    def garbage_copies_discarded(self) -> int:
        return sum(s.garbage_copies_discarded for s in self.shards)

    def memory_bytes(self) -> int:
        return sum(s.memory_bytes() for s in self.shards)

    def log_blocks_written(self) -> int:
        return sum(s.log_blocks_written() for s in self.shards)

    def total_log_capacity(self) -> int:
        return sum(s.total_log_capacity() for s in self.shards)

    def drain(self) -> None:
        for shard in self.shards:
            shard.drain()

    def durable_images(self) -> List[BlockImage]:
        return [image for shard in self.shards for image in shard.durable_images()]

    def check_invariants(self) -> None:
        for shard in self.shards:
            shard.check_invariants()
        for tid, tx in self._txes.items():
            if tx.killed:
                raise SimulationError(f"killed tx {tid} still in the vote table")
            for shard_index in tx.began:
                if self.shards[shard_index].ltt.get(tid) is None:
                    raise SimulationError(
                        f"tx {tid} began on shard {shard_index} but has no "
                        f"LTT entry there"
                    )

    def fault_report(self) -> Dict[str, object]:
        """Shard-summed view of the per-shard fault/self-healing reports."""
        reports = [s.fault_report() for s in self.shards]
        summed: Dict[str, object] = {}
        for key in (
            "write_faults",
            "write_retries",
            "failed_writes",
            "latent_faults",
            "blocks_retired",
            "records_healed",
            "records_stabilised",
            "deferred_acks",
            "outstanding_holds",
            "stranded_holds",
            "flush_requeues",
            "flush_drive_faults",
        ):
            summed[key] = sum(r[key] for r in reports)
        summed["retired_by_generation"] = [
            slots for r in reports for slots in r["retired_by_generation"]
        ]
        summed["degraded_generations"] = [
            [index, gen]
            for index, r in enumerate(reports)
            for gen in r["degraded_generations"]
        ]
        summed["per_shard"] = reports
        return summed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedLogManager shards={self.shard_count} "
            f"technique={self.technique} kills={self.kill_count}>"
        )
