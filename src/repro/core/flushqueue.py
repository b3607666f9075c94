"""The continuous flush scheduler.

"The LM can flush a data log record's update to disk any time after its
transaction has committed.  Flushing can proceed continuously at as high a
rate as possible ... At any given time, there should be a significantly
large number of committed updates from which the LM can choose the next
object to be flushed; too small a pool of updates leads to random I/O."

Per drive, pending flush requests are kept in an oid-sorted list; an idle
drive services the pending request with the smallest *circular* oid distance
from its current position ("each disk drive attempts to service pending
flush requests in a manner that minimizes access time", with oid difference
standing in for disk locality).
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Tuple

from repro.db.database import StableDatabase
from repro.db.objects import ObjectVersion
from repro.disk.drive import DiskDrive
from repro.disk.partition import RangePartitioner
from repro.errors import SimulationError
from repro.faults.injector import NULL_FAULTS
from repro.faults.plan import DiskFault
from repro.obs.events import NULL_TRACE, EventStream
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.records.data import DataLogRecord
from repro.sim.engine import Simulator

#: Fired after a flush write completes and the stable DB is updated.  The
#: log manager uses it to garbage the record and clean the LOT/LTT.
FlushCompleteCallback = Callable[[DataLogRecord], None]


class _DrivePool:
    """Pending flush requests for one drive, sorted by oid.

    ``span`` is the size of the drive's oid range, over which distances
    wrap around.
    """

    __slots__ = ("oids", "records", "span")

    def __init__(self, span: int) -> None:
        self.oids: List[int] = []
        self.records: Dict[int, DataLogRecord] = {}
        self.span = span

    def __len__(self) -> int:
        return len(self.oids)

    def add_or_replace(self, record: DataLogRecord) -> Optional[DataLogRecord]:
        """Queue ``record``; returns the request it superseded, if any."""
        oid = record.oid
        records = self.records
        replaced = records.get(oid)
        # A newer committed update supersedes the queued one.
        records[oid] = record
        if replaced is None:
            bisect.insort(self.oids, oid)
        return replaced

    def remove(self, oid: int) -> Optional[DataLogRecord]:
        record = self.records.pop(oid, None)
        if record is not None:
            del self.oids[bisect.bisect_left(self.oids, oid)]
        return record

    def take_nearest(self, position: Optional[int]) -> Tuple[DataLogRecord, Optional[int]]:
        """Remove and return the request closest to ``position``, circularly.

        Returns ``(record, distance)``; ``distance`` is ``None`` when the
        drive has no position yet (it then takes the smallest oid).
        """
        oids = self.oids
        if not oids:
            raise SimulationError("drive pool is empty")
        if position is None:
            return self.records.pop(oids.pop(0)), None
        span = self.span
        index = bisect.bisect_left(oids, position)
        # The circular minimum is the position's circular successor or its
        # predecessor: any other oid is farther in both directions, so it
        # can neither win nor tie.  Ties go to the smaller oid.
        after = index if index < len(oids) else 0
        before = index - 1 if index else len(oids) - 1
        oid = oids[after]
        diff = abs(oid - position)
        distance = diff if diff + diff <= span else span - diff
        other = oids[before]
        diff = abs(other - position)
        other_distance = diff if diff + diff <= span else span - diff
        if other_distance < distance or (other_distance == distance and other < oid):
            oid, distance, after = other, other_distance, before
        del oids[after]
        return self.records.pop(oid), distance


class FlushScheduler:
    """Drives the continuous, locality-aware flushing of committed updates."""

    def __init__(
        self,
        sim: Simulator,
        database: StableDatabase,
        partitioner: RangePartitioner,
        drive_count: int,
        write_seconds: float,
        on_flush_complete: FlushCompleteCallback,
        trace: EventStream = NULL_TRACE,
        metrics: MetricsRegistry = NULL_METRICS,
        faults=NULL_FAULTS,
    ):
        self.sim = sim
        self.database = database
        self.partitioner = partitioner
        self.faults = faults
        self.drives = [
            DiskDrive(sim, i, write_seconds, faults=faults)
            for i in range(drive_count)
        ]
        self._pools = [
            _DrivePool(hi - lo)
            for lo, hi in (partitioner.range_of(i) for i in range(drive_count))
        ]
        self._on_flush_complete = on_flush_complete
        self.trace = trace
        self.metrics = metrics
        metrics.view("flush.submitted", lambda: self.submitted)
        metrics.view("flush.completed", lambda: self.completed)
        metrics.view("flush.demand", lambda: self.demand_flushes)
        metrics.view("flush.depth", lambda: self._backlog, lambda: self.peak_backlog)
        metrics.view("flush.superseded", lambda: self.superseded_in_pool)
        metrics.view("flush.seek_distance", self.mean_seek_distance)
        self._m_settle = metrics.histogram("flush.settle_seconds")
        # Submit time per record LSN, kept only while metrics are on: it
        # feeds the settle-latency histogram (submit -> installed).  Keyed
        # by record, not oid, so a newer version submitted while an older
        # one is in service gets its own sample; an entry is dropped when
        # its record leaves the pool without being installed.
        self._measure_settle = metrics.enabled
        self._submit_times: Dict[int, float] = {}

        self.submitted = 0
        self.superseded_in_pool = 0
        self.demand_flushes = 0
        self.completed = 0
        #: Queued requests over all pools, kept by :meth:`_enqueue`,
        #: :meth:`_dequeue` and :meth:`_kick` (the only pool mutators) so
        #: :meth:`backlog` is O(1).
        self._backlog = 0
        self.peak_backlog = 0
        #: Writes whose drive exhausted its retry budget and went back to
        #: the pool (fault-injected runs only).
        self.flush_requeues = 0

    # ------------------------------------------------------------------
    # Log-manager-facing API
    # ------------------------------------------------------------------
    def submit(self, record: DataLogRecord) -> None:
        """Queue a committed update for flushing (replaces a stale one)."""
        drive_index = self.partitioner.drive_of(record.oid)
        replaced = self._enqueue(drive_index, record)
        self.submitted += 1
        if replaced is not None:
            self.superseded_in_pool += 1
        if self._measure_settle:
            self._submit_times[record.lsn] = self.sim.now
            if replaced is not None:
                self._submit_times.pop(replaced.lsn, None)
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "flush",
                "submit",
                {"oid": record.oid, "drive": drive_index, "backlog": self.backlog()},
            )
        # A busy drive picks up its next request when its write completes.
        if not self.drives[drive_index].busy:
            self._kick(drive_index)

    def cancel(self, oid: int) -> Optional[DataLogRecord]:
        """Remove a pending request (it was demand-flushed or superseded)."""
        record = self._dequeue(self.partitioner.drive_of(oid), oid)
        if record is not None:
            self._submit_times.pop(record.lsn, None)
        return record

    def demand_flush(self, record: DataLogRecord) -> None:
        """Flush ``record`` synchronously — the random-I/O head-block case.

        The update is installed immediately and the event is counted both as
        a flush and as a locality sample (it is exactly the "small amount of
        random I/O" the paper wants to measure).  The drive's mechanical
        time is not modelled for demand flushes; they are rare by design and
        the log, not the database disks, is the bottleneck under study.
        """
        drive_index = self.partitioner.drive_of(record.oid)
        queued = self._dequeue(drive_index, record.oid)
        if queued is not None and queued is not record:
            self._submit_times.pop(queued.lsn, None)
        drive = self.drives[drive_index]
        seek = None
        if drive.position is not None:
            seek = self.partitioner.distance(drive.position, record.oid)
        drive.stats.record_write(0.0, seek)
        drive.position = record.oid
        self.demand_flushes += 1
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "flush",
                "demand",
                {"oid": record.oid, "drive": drive_index, "seek": seek},
            )
        self._install(record)
        self._on_flush_complete(record)

    def backlog(self) -> int:
        """Pending requests over all drives (excludes in-service ones)."""
        return self._backlog

    def mean_seek_distance(self) -> float:
        """Average oid distance between successive flushes, over all drives."""
        total = sum(d.stats.seek_distance_total for d in self.drives)
        samples = sum(d.stats.seek_samples for d in self.drives)
        return total / samples if samples else 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enqueue(self, drive_index: int, record: DataLogRecord) -> Optional[DataLogRecord]:
        """Queue ``record`` on its drive; returns the request it superseded."""
        replaced = self._pools[drive_index].add_or_replace(record)
        if replaced is None:
            backlog = self._backlog = self._backlog + 1
            if backlog > self.peak_backlog:
                self.peak_backlog = backlog
        return replaced

    def _dequeue(self, drive_index: int, oid: int) -> Optional[DataLogRecord]:
        """Take ``oid``'s queued request off its drive, if there is one."""
        record = self._pools[drive_index].remove(oid)
        if record is not None:
            self._backlog -= 1
        return record

    def _kick(self, drive_index: int) -> None:
        drive = self.drives[drive_index]
        pool = self._pools[drive_index]
        if drive.busy or not pool.oids:
            return
        record, seek = pool.take_nearest(drive.position)
        self._backlog -= 1
        # Bound methods plus pass-through arguments: no closure per flush.
        drive.write(
            record.oid,
            self._done,
            seek,
            self._failed if self.faults.injects_flush else None,
            drive_index,
            record,
            seek,
        )

    def _done(self, drive_index: int, record: DataLogRecord, seek: Optional[int]) -> None:
        """A drive finished writing ``record``: install it, start the next."""
        self.completed += 1
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "flush",
                "complete",
                {"oid": record.oid, "drive": drive_index, "seek": seek},
            )
        self._install(record)
        self._on_flush_complete(record)
        self._kick(drive_index)

    def _failed(
        self, fault: DiskFault, drive_index: int, record: DataLogRecord, seek: Optional[int]
    ) -> None:
        """A drive exhausted its retry budget on ``record``.

        The update goes back in the pool (a newer committed version wins if
        one arrived meanwhile: the old record is garbage by then) and the
        drive tries again after the backoff.  The update stays recoverable
        throughout — its log record is not garbage until installed.
        """
        self.flush_requeues += 1
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "fault",
                "flush_requeue",
                {"oid": record.oid, "drive": drive_index, "attempts": fault.attempts},
            )
        if record.cell is not None:
            self._enqueue(drive_index, record)
        else:
            self._submit_times.pop(record.lsn, None)
        self.sim.after(self.faults.plan.retry_backoff_seconds, self._kick, drive_index)

    def _install(self, record: DataLogRecord) -> None:
        if self._measure_settle:
            submitted = self._submit_times.pop(record.lsn, None)
            if submitted is not None:
                self._m_settle.observe(self.sim.now - submitted)
        self.database.install(
            record.oid,
            ObjectVersion(record.value, record.timestamp, record.lsn),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlushScheduler drives={len(self.drives)} backlog={self.backlog()} "
            f"completed={self.completed}>"
        )
