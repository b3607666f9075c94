"""The live append/commit service.

An asyncio server that runs the existing log managers — EL, FW, or the
sharded composition — against wall-clock time (:class:`RealTimeScheduler`)
and real files (:class:`LiveLogStorage` + :class:`FileBackedDatabase`).
The managers are unmodified and built by the same
:func:`~repro.core.build.build_manager` the simulator uses:
BEGIN/UPDATE/COMMIT/ABORT frames map 1:1 onto the ``LogManager``
interface, and the COMMIT response is fired from the same group-commit
durability callback the simulator uses, so a client ack means the commit
record has been ``fsync``\\ ed into the log.

Three service-level mechanisms surround the manager:

* **Admission control** — at most ``max_inflight`` transactions may be
  begun-but-unresolved; further BEGINs wait on a semaphore, which stops
  that connection's read loop and pushes back through TCP instead of
  queueing unboundedly.
* **Group-commit pacing** — the managers seal a log block when it fills;
  at low offered load that would leave a commit record sitting in an open
  buffer indefinitely, so while commits are pending the server drains open
  buffers every :data:`GROUP_COMMIT_SECONDS` (the paper's group commit,
  with a deadline instead of a full block).
* **Graceful drain** — SIGTERM (or ``--duration`` expiry) stops accepting
  connections, rejects new BEGINs, lets in-flight transactions settle for
  up to :data:`DRAIN_GRACE_SECONDS`, seals and syncs the log, and writes a
  run manifest.

Every count and latency lives in the server's one
:class:`MetricsRegistry`.  Transaction outcomes and log blocks are the
manager's own counts, under the names the simulator reports
(``el.committed``, ``el.kills``, ``log.gen0.blocks_written``, ...); only
what the manager cannot see is the service's: ``server.*`` (rejections,
protocol and internal errors, commit latency) and the storage's
``log.*`` (encoded bytes, fsyncs, write latency).
"""

from __future__ import annotations

import asyncio
import itertools
import signal
from pathlib import Path
from typing import Dict, Optional, Set

from repro.constants import BLOCK_PAYLOAD_BYTES
from repro.core.build import build_manager
from repro.errors import ConfigurationError, ReproError
from repro.live import protocol
from repro.live.clock import RealTimeScheduler
from repro.live.storage import FileBackedDatabase, LiveLogStorage
from repro.obs.metrics import Histogram, MetricsRegistry

#: Default object-space size for live servers: large enough that the paper's
#: exclusivity constraint never binds, small enough that the sparse database
#: file stays trivial.
DEFAULT_NUM_OBJECTS = 1_000_000

#: Group-commit deadline: open buffers holding pending commits are sealed
#: this often.
GROUP_COMMIT_SECONDS = 0.005

#: Flush drives modelling the stable database's disks.
FLUSH_DRIVES = 10

#: Simulated per-flush transfer time.  Real database installs are a single
#: pwrite (microseconds), so this is an SSD-class 2 ms rather than the
#: paper's 25 ms 1993 disk — the log, not the database array, is the
#: subsystem under test.
FLUSH_WRITE_SECONDS = 0.002

#: How long a drain waits for in-flight transactions, and then for the
#: queued log writes, before it gives up on them.
DRAIN_GRACE_SECONDS = 10.0

#: The metrics only the service keeps (the manager's own, such as
#: ``el.committed`` or ``log.gen0.blocks_written``, are the simulator's
#: names); :meth:`LiveServer.counters` and the manifest's counter block
#: report exactly these.
SERVICE_METRICS = (
    "server.rejections",
    "server.protocol_errors",
    "server.internal_errors",
    "server.commit_latency",
    "log.bytes_written",
    "log.fsyncs",
    "log.write_latency",
)


class _LiveTx:
    """Server-side state for one in-flight transaction."""

    __slots__ = ("tid", "writer", "conn_tids", "killed", "commit_pending", "released")

    def __init__(
        self, tid: int, writer: asyncio.StreamWriter, conn_tids: Set[int]
    ):
        self.tid = tid
        self.writer = writer
        #: The owning connection's unresolved tids (this one included).
        self.conn_tids = conn_tids
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
        host: str = "127.0.0.1",
        port: int = 0,
        num_objects: int = DEFAULT_NUM_OBJECTS,
        max_inflight: int = 256,
    ):
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.log_dir = Path(log_dir)
        self.technique = technique
        self.generation_sizes = tuple(generation_sizes)
        self.shards = shards
        self.host = host
        self.port = port
        self.num_objects = num_objects
        self.max_inflight = max_inflight

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

        metrics = self.metrics
        self._rejections = metrics.counter("server.rejections")
        self._protocol_errors = metrics.counter("server.protocol_errors")
        self._internal_errors = metrics.counter("server.internal_errors")
        self._commit_latency = metrics.histogram("server.commit_latency")

    @property
    def commits_acked(self) -> int:
        return self.manager.committed_count

    @property
    def aborts(self) -> int:
        return self.manager.aborted_count

    @property
    def kills_observed(self) -> int:
        return self.manager.kill_count

    @property
    def rejections(self) -> int:
        return self._rejections.value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Build the manager + storage and start listening."""
        if self.technique not in ("el", "fw"):
            raise ConfigurationError(
                f"live mode supports 'el' and 'fw', got {self.technique!r}"
            )
        loop = asyncio.get_running_loop()
        self.scheduler = RealTimeScheduler(loop)
        self.log_dir.mkdir(parents=True, exist_ok=True)
        self.database = FileBackedDatabase(
            self.log_dir / "db.dat", self.num_objects
        )
        self.manager = build_manager(
            self.scheduler,
            self.database,
            technique=self.technique,
            generation_sizes=self.generation_sizes,
            shards=self.shards,
            flush_drives=FLUSH_DRIVES,
            flush_write_seconds=FLUSH_WRITE_SECONDS,
            metrics=self.metrics,
        )
        self.manager.on_kill = self._handle_kill
        self.storage = LiveLogStorage(self.log_dir, self.scheduler, self.metrics)
        self.storage.attach(
            self.manager.shards if self.shards > 1 else [self.manager]
        )
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
        deadline = self.scheduler.now + DRAIN_GRACE_SECONDS
        while self._unsettled() and self.scheduler.now < deadline:
            self.manager.drain()
            await asyncio.sleep(0.02)
        # Abort whatever is still active (client went quiet); pending
        # commits past the grace period are left to recovery.
        for tx in list(self._txes.values()):
            self._release_abandoned(tx)
        self.manager.drain()
        # Wait for every queued log write to reach the disk.
        io_deadline = self.scheduler.now + DRAIN_GRACE_SECONDS
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
                "num_objects": self.num_objects,
                "max_inflight": self.max_inflight,
                "group_commit_seconds": GROUP_COMMIT_SECONDS,
                "flush_drives": FLUSH_DRIVES,
                "flush_write_seconds": FLUSH_WRITE_SECONDS,
            },
            sim=self.scheduler.snapshot(),
            counters=self.counters(),
            metrics=self.metrics.snapshot(),
            wall_seconds=self.scheduler.now,
        )
        manifest.write(self.log_dir / "server-manifest.json")

    def counters(self) -> dict:
        """The :data:`SERVICE_METRICS`: counts, and histogram snapshots."""
        counters = {}
        for name in SERVICE_METRICS:
            metric = self.metrics.get(name)
            counters[name] = (
                metric.snapshot() if isinstance(metric, Histogram) else metric.value
            )
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
            self._protocol_errors.inc()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            self._writers.discard(writer)
            self._abandon(conn_tids)
            writer.close()

    def _abandon(self, conn_tids: Set[int]) -> None:
        """Client went away: release its unresolved transactions.

        Pending commits stay registered: the durability callback will
        still fire and settle the transaction (the ack just has no reader
        anymore).
        """
        for tid in list(conn_tids):
            tx = self._txes[tid]
            if not tx.commit_pending:
                self._release_abandoned(tx)

    def _release_abandoned(self, tx: _LiveTx) -> None:
        """Abort ``tx`` if it is still active, then release it."""
        if not tx.commit_pending and not tx.killed:
            try:
                self.manager.abort(tx.tid)
            except ReproError:
                self._refused(tx)
        self._finish(tx)

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
            self._rejections.inc()
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
            self._rejections.inc()
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
            protocol.write_frame(
                writer,
                protocol.encode_begin_ok(self._refused(None), client_ref, 0),
            )
            return
        self._txes[tid] = _LiveTx(tid, writer, conn_tids)
        conn_tids.add(tid)
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
            self._internal_errors.inc()
            protocol.write_frame(
                writer,
                protocol.encode_update_ok(protocol.STATUS_ERROR, tid, 0, 0.0),
            )
            return
        try:
            record = self.manager.log_update(tid, oid, value, size)
        except ReproError:
            protocol.write_frame(
                writer, protocol.encode_update_ok(self._refused(tx), tid, 0, 0.0)
            )
            return
        # The appended record's own timestamp: what recovery reads back.
        protocol.write_frame(
            writer,
            protocol.encode_update_ok(
                protocol.STATUS_OK, tid, record.lsn, record.timestamp
            ),
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
            self._commit_latency.observe(ack_time - requested_at)
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
            protocol.write_frame(
                writer, protocol.encode_commit_ok(self._refused(tx), tid, 0.0)
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
            protocol.write_frame(
                writer, protocol.encode_abort_ok(self._refused(tx), tid)
            )
            return
        self._finish(tx)
        protocol.write_frame(
            writer, protocol.encode_abort_ok(protocol.STATUS_OK, tid)
        )

    def _gate(self, tx: Optional[_LiveTx]) -> Optional[int]:
        """Common entry check: ``None`` means proceed, else a status code."""
        if tx is None:
            return protocol.STATUS_ERROR
        if tx.killed:
            self._finish(tx)
            return protocol.STATUS_KILLED
        if tx.commit_pending:
            return protocol.STATUS_ERROR
        return None

    def _refused(self, tx: Optional[_LiveTx]) -> int:
        """The manager rejected a call for ``tx``: the status to answer.

        A kill during the call explains it (the transaction is over);
        anything else counts as an internal error.
        """
        if tx is not None and tx.killed:
            self._finish(tx)
            return protocol.STATUS_KILLED
        self._internal_errors.inc()
        return protocol.STATUS_ERROR

    def _finish(self, tx: _LiveTx) -> None:
        """Forget ``tx`` (idempotent) and free its admission slot."""
        self._txes.pop(tx.tid, None)
        tx.conn_tids.discard(tx.tid)
        if not tx.released:
            tx.released = True
            self._admission.release()

    # ------------------------------------------------------------------
    # Manager callbacks and pacing
    # ------------------------------------------------------------------
    def _handle_kill(self, tid: int, _time: float) -> None:
        """The manager killed a transaction to reclaim log space."""
        tx = self._txes.get(tid)
        if tx is None:
            return
        tx.killed = True
        # Free the admission slot now (the manager already dropped the tx);
        # the entry stays so the client's next op gets STATUS_KILLED.
        if not tx.released:
            tx.released = True
            self._admission.release()

    def _arm_pacer(self) -> None:
        if self._pacer is None and self._commits_pending > 0:
            self._pacer = self.scheduler.after(
                GROUP_COMMIT_SECONDS, self._pacer_tick
            )

    def _pacer_tick(self) -> None:
        """Group-commit deadline: seal open buffers so pending commits land."""
        self._pacer = None
        if self._commits_pending > 0:
            self.manager.drain()
            self._arm_pacer()
