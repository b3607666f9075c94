"""The live append/commit service.

An asyncio server that runs the existing log managers — EL, FW, or the
sharded composition — against wall-clock time (:class:`RealTimeScheduler`)
and real files (:class:`LiveLogStorage` + :class:`FileBackedDatabase`).
The managers are unmodified: BEGIN/UPDATE/COMMIT/ABORT frames map 1:1 onto
the ``LogManager`` interface, and the COMMIT response is fired from the
same group-commit durability callback the simulator uses, so a client ack
means the commit record has been ``fsync``\\ ed into the log.

Three service-level mechanisms surround the manager:

* **Admission control** — at most ``max_inflight`` transactions may be
  begun-but-unresolved; further BEGINs wait on a semaphore, which stops
  that connection's read loop and pushes back through TCP instead of
  queueing unboundedly.
* **Group-commit pacing** — the managers seal a log block when it fills;
  at low offered load that would leave a commit record sitting in an open
  buffer indefinitely, so while commits are pending the server drains open
  buffers every ``group_commit_seconds`` (the paper's group commit, with a
  deadline instead of a full block).
* **Graceful drain** — SIGTERM (or ``--duration`` expiry) stops accepting
  connections, rejects new BEGINs, lets in-flight transactions settle,
  seals and syncs the log, and writes a run manifest.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
from pathlib import Path
from typing import Dict, Optional, Set

from repro.constants import BLOCK_PAYLOAD_BYTES
from repro.core.ephemeral import EphemeralLogManager
from repro.core.firewall import FirewallLogManager
from repro.errors import ConfigurationError, ReproError
from repro.live import protocol
from repro.live.clock import RealTimeScheduler
from repro.live.storage import FileBackedDatabase, LiveLogStorage
from repro.obs.metrics import Histogram, MetricsRegistry

#: Default object-space size for live servers: large enough that the paper's
#: exclusivity constraint never binds, small enough that the sparse database
#: file stays trivial.
DEFAULT_NUM_OBJECTS = 1_000_000

#: Live flush drives model the stable database's disks.  Real database
#: installs are a single pwrite (microseconds), so the simulated per-flush
#: transfer time is an SSD-class 2 ms rather than the paper's 25 ms 1993
#: disk — the log, not the database array, is the subsystem under test.
DEFAULT_FLUSH_WRITE_SECONDS = 0.002


def build_live_manager(
    scheduler,
    database,
    *,
    technique: str = "el",
    generation_sizes=(128, 128),
    shards: int = 1,
    recirculation: bool = True,
    flush_drives: int = 10,
    flush_write_seconds: float = DEFAULT_FLUSH_WRITE_SECONDS,
    metrics: MetricsRegistry,
):
    """Construct an unmodified log manager on the live scheduler."""
    if technique not in ("el", "fw"):
        raise ConfigurationError(
            f"live mode supports 'el' and 'fw', got {technique!r}"
        )
    common = dict(
        flush_drives=flush_drives,
        flush_write_seconds=flush_write_seconds,
        metrics=metrics,
    )
    if shards > 1:
        from repro.core.sharded import ShardedLogManager

        return ShardedLogManager(
            scheduler,
            database,
            shard_count=shards,
            technique=technique,
            generation_sizes=tuple(generation_sizes),
            recirculation=recirculation and technique == "el",
            **common,
        )
    if technique == "fw":
        return FirewallLogManager(
            scheduler, database, log_blocks=generation_sizes[0], **common
        )
    return EphemeralLogManager(
        scheduler,
        database,
        generation_sizes=tuple(generation_sizes),
        recirculation=recirculation,
        **common,
    )


class _LiveTx:
    """Server-side state for one in-flight transaction."""

    __slots__ = ("tid", "writer", "killed", "commit_pending", "released")

    def __init__(self, tid: int, writer: asyncio.StreamWriter):
        self.tid = tid
        self.writer = writer
        self.killed = False
        self.commit_pending = False
        self.released = False


class LiveServer:
    """Asyncio front end exposing a log manager over the wire protocol."""

    def __init__(
        self,
        log_dir,
        *,
        technique: str = "el",
        generation_sizes=(128, 128),
        shards: int = 1,
        recirculation: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        num_objects: int = DEFAULT_NUM_OBJECTS,
        max_inflight: int = 256,
        group_commit_seconds: float = 0.005,
        flush_drives: int = 10,
        flush_write_seconds: float = DEFAULT_FLUSH_WRITE_SECONDS,
        fsync: bool = True,
        drain_grace_seconds: float = 10.0,
    ):
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if group_commit_seconds <= 0:
            raise ConfigurationError(
                f"group_commit_seconds must be positive, got {group_commit_seconds}"
            )
        self.log_dir = Path(log_dir)
        self.technique = technique
        self.generation_sizes = tuple(generation_sizes)
        self.shards = shards
        self.recirculation = recirculation
        self.host = host
        self.port = port
        self.num_objects = num_objects
        self.max_inflight = max_inflight
        self.group_commit_seconds = group_commit_seconds
        self.flush_drives = flush_drives
        self.flush_write_seconds = flush_write_seconds
        self.fsync = fsync
        self.drain_grace_seconds = drain_grace_seconds

        self.metrics = MetricsRegistry(enabled=True)
        self.scheduler: Optional[RealTimeScheduler] = None
        self.database: Optional[FileBackedDatabase] = None
        self.storage: Optional[LiveLogStorage] = None
        self.manager = None
        self._server: Optional[asyncio.base_events.Server] = None

        self._tids = itertools.count(1)
        self._txes: Dict[int, _LiveTx] = {}
        self._writers: Set[asyncio.StreamWriter] = set()
        self._admission: Optional[asyncio.Semaphore] = None
        self._commits_pending = 0
        self._pacer = None
        self._draining = False
        self._shutdown = asyncio.Event()
        self._stopped = asyncio.Event()

        # Service counters (also exported into the manifest).
        self.begins = 0
        self.commits_acked = 0
        self.aborts = 0
        self.kills_observed = 0
        self.rejections = 0
        self.protocol_errors = 0
        self.internal_errors = 0
        self.commit_latency = Histogram("server.commit_latency")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Build the manager + storage and start listening."""
        loop = asyncio.get_running_loop()
        self.scheduler = RealTimeScheduler(loop)
        self.log_dir.mkdir(parents=True, exist_ok=True)
        self.database = FileBackedDatabase(
            self.log_dir / "db.dat", self.num_objects
        )
        self.manager = build_live_manager(
            self.scheduler,
            self.database,
            technique=self.technique,
            generation_sizes=self.generation_sizes,
            shards=self.shards,
            recirculation=self.recirculation,
            flush_drives=self.flush_drives,
            flush_write_seconds=self.flush_write_seconds,
            metrics=self.metrics,
        )
        self.manager.on_kill = self._handle_kill
        self.storage = LiveLogStorage(
            self.log_dir, self.scheduler, fsync=self.fsync
        )
        self.storage.attach(self.manager)
        self._admission = asyncio.Semaphore(self.max_inflight)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self, duration: Optional[float] = None) -> None:
        """Serve until SIGTERM/SIGINT or ``duration`` elapses, then drain."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        if duration is not None:
            self.scheduler.after(duration, self.request_shutdown)
        await self._shutdown.wait()
        await self._graceful_stop()

    def request_shutdown(self) -> None:
        """Begin the graceful drain (idempotent; signal-handler safe)."""
        self._shutdown.set()

    async def stop(self) -> None:
        """Programmatic shutdown: request + wait for the drain to finish."""
        self.request_shutdown()
        await self._stopped.wait()

    async def _graceful_stop(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let in-flight transactions settle: keep the group-commit pacer
        # logic running by draining open buffers until every pending commit
        # has acked (or the grace period expires).
        deadline = self.scheduler.now + self.drain_grace_seconds
        while self._unsettled() and self.scheduler.now < deadline:
            self.manager.drain()
            await asyncio.sleep(0.02)
        # Abort whatever is still active (client went quiet); pending
        # commits past the grace period are left to recovery.
        for tx in list(self._txes.values()):
            if not tx.commit_pending and not tx.killed:
                try:
                    self.manager.abort(tx.tid)
                    self.aborts += 1
                except ReproError:
                    pass
            self._finish(tx)
        self.manager.drain()
        # Wait for every queued log write to reach the disk.
        io_deadline = self.scheduler.now + self.drain_grace_seconds
        while self.storage.writes_pending and self.scheduler.now < io_deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._writers):
            writer.close()
        self.scheduler.close()
        self.storage.close()
        self.database.close()
        self._write_manifest()
        self._stopped.set()

    def _unsettled(self) -> bool:
        return self._commits_pending > 0 or any(
            not tx.commit_pending and not tx.killed for tx in self._txes.values()
        )

    def _write_manifest(self) -> None:
        from repro.obs.manifest import RunManifest

        manifest = RunManifest(
            label=f"live-serve-{self.technique}",
            seed=0,
            config={
                "technique": self.technique,
                "generation_sizes": list(self.generation_sizes),
                "shards": self.shards,
                "recirculation": self.recirculation,
                "num_objects": self.num_objects,
                "max_inflight": self.max_inflight,
                "group_commit_seconds": self.group_commit_seconds,
                "flush_drives": self.flush_drives,
                "flush_write_seconds": self.flush_write_seconds,
                "fsync": self.fsync,
            },
            sim=self.scheduler.snapshot(),
            counters=self.counters(),
            metrics=self.metrics.snapshot(),
            wall_seconds=self.scheduler.now,
        )
        manifest.write(self.log_dir / "server-manifest.json")

    def counters(self) -> dict:
        counters = {
            "server.begins": self.begins,
            "server.commits_acked": self.commits_acked,
            "server.aborts": self.aborts,
            "server.kills": self.kills_observed,
            "server.rejections": self.rejections,
            "server.protocol_errors": self.protocol_errors,
            "server.internal_errors": self.internal_errors,
        }
        counters.update(self.storage.counters())
        counters["server.commit_latency"] = self.commit_latency.snapshot()
        counters["log.write_latency"] = self.storage.write_latency().snapshot()
        return counters

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        conn_tids: Set[int] = set()
        try:
            while True:
                body = await protocol.read_frame(reader)
                if body is None:
                    break
                await self._dispatch(body, writer, conn_tids)
                await writer.drain()
        except protocol.ProtocolError:
            self.protocol_errors += 1
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            self._writers.discard(writer)
            self._abandon(conn_tids)
            writer.close()

    def _abandon(self, conn_tids: Set[int]) -> None:
        """Client went away: abort its still-active transactions."""
        for tid in conn_tids:
            tx = self._txes.get(tid)
            if tx is None:
                continue
            if not tx.commit_pending and not tx.killed:
                try:
                    self.manager.abort(tid)
                    self.aborts += 1
                except ReproError:
                    self.internal_errors += 1
                self._finish(tx)
            # Pending commits stay registered: the durability callback will
            # still fire and settle the transaction (the ack just has no
            # reader anymore).

    async def _dispatch(
        self,
        body: bytes,
        writer: asyncio.StreamWriter,
        conn_tids: Set[int],
    ) -> None:
        request = protocol.decode_request(body)
        op = request[0]
        if op == protocol.OP_BEGIN:
            await self._do_begin(request[1], writer, conn_tids)
        elif op == protocol.OP_UPDATE:
            self._do_update(request, writer)
        elif op == protocol.OP_COMMIT:
            self._do_commit(request[1], writer)
        else:  # OP_ABORT
            self._do_abort(request[1], writer)

    async def _do_begin(
        self, client_ref: int, writer: asyncio.StreamWriter, conn_tids: Set[int]
    ) -> None:
        if self._draining:
            self.rejections += 1
            protocol.write_frame(
                writer,
                protocol.encode_begin_ok(protocol.STATUS_REJECTED, client_ref, 0),
            )
            return
        # Backpressure point: waiting here suspends this connection's read
        # loop, so a saturated server pushes back through TCP.
        await self._admission.acquire()
        if self._draining:
            self._admission.release()
            self.rejections += 1
            protocol.write_frame(
                writer,
                protocol.encode_begin_ok(protocol.STATUS_REJECTED, client_ref, 0),
            )
            return
        tid = next(self._tids)
        try:
            self.manager.begin(tid)
        except ReproError:
            self._admission.release()
            self.internal_errors += 1
            protocol.write_frame(
                writer,
                protocol.encode_begin_ok(protocol.STATUS_ERROR, client_ref, 0),
            )
            return
        self._txes[tid] = _LiveTx(tid, writer)
        conn_tids.add(tid)
        self.begins += 1
        protocol.write_frame(
            writer, protocol.encode_begin_ok(protocol.STATUS_OK, client_ref, tid)
        )

    def _do_update(self, request, writer: asyncio.StreamWriter) -> None:
        _, tid, oid, value, size = request
        tx = self._txes.get(tid)
        status = self._gate(tx)
        if status is not None:
            protocol.write_frame(
                writer, protocol.encode_update_ok(status, tid, 0, 0.0)
            )
            return
        if not 0 <= oid < self.num_objects or not 0 < size <= BLOCK_PAYLOAD_BYTES:
            self.internal_errors += 1
            protocol.write_frame(
                writer,
                protocol.encode_update_ok(protocol.STATUS_ERROR, tid, 0, 0.0),
            )
            return
        try:
            lsn = self.manager.log_update(tid, oid, value, size)
        except ReproError:
            status = (
                protocol.STATUS_KILLED if tx.killed else protocol.STATUS_ERROR
            )
            if status == protocol.STATUS_ERROR:
                self.internal_errors += 1
            if tx.killed:
                self._txes.pop(tid, None)
            protocol.write_frame(
                writer, protocol.encode_update_ok(status, tid, 0, 0.0)
            )
            return
        timestamp = self._record_timestamp(tid, oid, lsn)
        protocol.write_frame(
            writer,
            protocol.encode_update_ok(protocol.STATUS_OK, tid, lsn, timestamp),
        )

    def _do_commit(self, tid: int, writer: asyncio.StreamWriter) -> None:
        tx = self._txes.get(tid)
        status = self._gate(tx)
        if status is not None:
            protocol.write_frame(
                writer, protocol.encode_commit_ok(status, tid, 0.0)
            )
            return
        requested_at = self.scheduler.now

        def on_ack(acked_tid: int, ack_time: float) -> None:
            self._commits_pending -= 1
            self.commits_acked += 1
            self.commit_latency.observe(ack_time - requested_at)
            self._finish(tx)
            if not tx.writer.is_closing():
                protocol.write_frame(
                    tx.writer,
                    protocol.encode_commit_ok(
                        protocol.STATUS_OK, acked_tid, ack_time
                    ),
                )

        try:
            self.manager.request_commit(tid, on_ack)
        except ReproError:
            status = (
                protocol.STATUS_KILLED if tx.killed else protocol.STATUS_ERROR
            )
            if status == protocol.STATUS_ERROR:
                self.internal_errors += 1
            if tx.killed:
                self._txes.pop(tid, None)
            protocol.write_frame(
                writer, protocol.encode_commit_ok(status, tid, 0.0)
            )
            return
        tx.commit_pending = True
        self._commits_pending += 1
        self._arm_pacer()

    def _do_abort(self, tid: int, writer: asyncio.StreamWriter) -> None:
        tx = self._txes.get(tid)
        status = self._gate(tx)
        if status is not None:
            protocol.write_frame(writer, protocol.encode_abort_ok(status, tid))
            return
        try:
            self.manager.abort(tid)
        except ReproError:
            self.internal_errors += 1
            protocol.write_frame(
                writer, protocol.encode_abort_ok(protocol.STATUS_ERROR, tid)
            )
            return
        self.aborts += 1
        self._finish(tx)
        protocol.write_frame(
            writer, protocol.encode_abort_ok(protocol.STATUS_OK, tid)
        )

    def _gate(self, tx: Optional[_LiveTx]) -> Optional[int]:
        """Common entry check: ``None`` means proceed, else a status code."""
        if tx is None:
            return protocol.STATUS_ERROR
        if tx.killed:
            self._txes.pop(tx.tid, None)
            return protocol.STATUS_KILLED
        if tx.commit_pending:
            return protocol.STATUS_ERROR
        return None

    def _finish(self, tx: _LiveTx) -> None:
        self._txes.pop(tx.tid, None)
        if not tx.released:
            tx.released = True
            self._admission.release()

    # ------------------------------------------------------------------
    # Manager callbacks and pacing
    # ------------------------------------------------------------------
    def _handle_kill(self, tid: int, _time: float) -> None:
        """The manager killed a transaction to reclaim log space."""
        self.kills_observed += 1
        tx = self._txes.get(tid)
        if tx is None:
            return
        tx.killed = True
        # Free the admission slot now (the manager already dropped the tx);
        # the entry stays so the client's next op gets STATUS_KILLED.
        if not tx.released:
            tx.released = True
            self._admission.release()

    def _record_timestamp(self, tid: int, oid: int, lsn: int) -> float:
        """The appended record's exact timestamp (what recovery reads back)."""
        manager = self.manager
        shards = getattr(manager, "_shards", None)
        if shards is not None:
            manager = shards[manager.router.drive_of(oid)]
        entry = manager.lot.get(oid)
        if entry is not None:
            cell = entry.uncommitted_cells.get(tid)
            if cell is not None and cell.record.lsn == lsn:
                return cell.record.timestamp
        return self.scheduler.now  # pragma: no cover - defensive fallback

    def _arm_pacer(self) -> None:
        if self._pacer is None and self._commits_pending > 0:
            self._pacer = self.scheduler.after(
                self.group_commit_seconds, self._pacer_tick
            )

    def _pacer_tick(self) -> None:
        """Group-commit deadline: seal open buffers so pending commits land."""
        self._pacer = None
        if self._commits_pending > 0:
            self.manager.drain()
            self._arm_pacer()
