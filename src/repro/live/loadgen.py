"""Closed-loop load generator for the live append/commit service.

``connections`` concurrent clients each run an independent closed loop:
BEGIN, a fixed number of UPDATEs, COMMIT, each awaiting its response
before the next request.  The aggregate offered rate is paced toward
``target_tps`` by sleeping out the remainder of each transaction's
per-connection period (``connections / target_tps`` seconds); a saturated
server therefore degrades gracefully — loops just run back-to-back and
throughput reports what the service actually sustained.

Besides throughput and the commit-latency histogram, the generator keeps
the crash-verification ground truth: every acked COMMIT contributes its
transaction's updates as :class:`AckedUpdate` tuples, carrying the record
timestamps and LSNs the server echoed back — exactly what
:class:`repro.recovery.verify.RecoveryVerifier` needs to audit a recovered
database, including one recovered from a SIGKILLed server's files.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.live import protocol
from repro.obs.manifest import RunManifest
from repro.obs.metrics import Histogram
from repro.workload.generator import AckedUpdate
from repro.workload.oids import OidChooser
from repro.workload.spec import SkewSpec


@dataclass
class LoadReport:
    """Everything one load run measured."""

    duration: float = 0.0
    committed: int = 0
    killed: int = 0
    rejected: int = 0
    aborted: int = 0
    errors: int = 0
    protocol_errors: int = 0
    updates_acked: int = 0
    commit_latency: Histogram = field(
        default_factory=lambda: Histogram("loadgen.commit_latency")
    )
    acked_updates: List[AckedUpdate] = field(default_factory=list)

    @property
    def tps(self) -> float:
        return self.committed / self.duration if self.duration > 0 else 0.0

    @property
    def ok(self) -> bool:
        """CI gate: at least one commit and a clean protocol run."""
        return self.committed > 0 and self.protocol_errors == 0 and self.errors == 0

    def counters(self) -> dict:
        return {
            "loadgen.committed": self.committed,
            "loadgen.killed": self.killed,
            "loadgen.rejected": self.rejected,
            "loadgen.aborted": self.aborted,
            "loadgen.errors": self.errors,
            "loadgen.protocol_errors": self.protocol_errors,
            "loadgen.updates_acked": self.updates_acked,
            "loadgen.tps": self.tps,
            "loadgen.commit_latency": self.commit_latency.snapshot(),
        }


class _Client:
    """One connection's closed loop."""

    def __init__(self, gen: "LoadGenerator", index: int):
        self.gen = gen
        self.index = index
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def _call(self, request: bytes) -> Tuple:
        protocol.write_frame(self.writer, request)
        await self.writer.drain()
        body = await protocol.read_frame(self.reader)
        if body is None:
            raise protocol.ProtocolError("server closed the connection")
        return protocol.decode_response(body)

    async def run(self) -> None:
        gen = self.gen
        self.reader, self.writer = await asyncio.open_connection(
            gen.host, gen.port
        )
        loop = asyncio.get_running_loop()
        period = gen.period
        try:
            while loop.time() < gen.deadline:
                started = loop.time()
                await self._transaction()
                if period > 0:
                    remaining = started + period - loop.time()
                    if remaining > 0:
                        await asyncio.sleep(remaining)
        except protocol.ProtocolError:
            gen.report.protocol_errors += 1
        except (ConnectionResetError, BrokenPipeError, OSError):
            # The server went away (drain or SIGKILL test) — not a protocol
            # violation; whatever committed before is already recorded.
            pass
        finally:
            if self.writer is not None:
                self.writer.close()

    async def _transaction(self) -> None:
        gen = self.gen
        report = gen.report
        loop = asyncio.get_running_loop()

        response = await self._call(protocol.encode_begin(self.index))
        _, status, _, tid = response
        if status == protocol.STATUS_REJECTED:
            report.rejected += 1
            return
        if status != protocol.STATUS_OK:
            report.errors += 1
            return

        oids: List[int] = []
        pending: List[AckedUpdate] = []
        try:
            for _ in range(gen.updates_per_tx):
                oid = gen.chooser.acquire()
                oids.append(oid)
                value = gen.next_value()
                response = await self._call(
                    protocol.encode_update(
                        tid, oid, value, gen.update_size_bytes
                    )
                )
                _, status, _, lsn, timestamp = response
                if status != protocol.STATUS_OK:
                    self._count_failure(status)
                    return
                pending.append(AckedUpdate(oid, value, timestamp, lsn, 0.0))

            send_time = loop.time()
            response = await self._call(protocol.encode_commit(tid))
            _, status, _, ack_time = response
            if status != protocol.STATUS_OK:
                self._count_failure(status)
                return
            report.committed += 1
            report.commit_latency.observe(loop.time() - send_time)
            report.updates_acked += len(pending)
            report.acked_updates.extend(
                update._replace(ack_time=ack_time) for update in pending
            )
        finally:
            gen.chooser.release_all(oids)

    def _count_failure(self, status: int) -> None:
        report = self.gen.report
        if status == protocol.STATUS_KILLED:
            report.killed += 1
        elif status == protocol.STATUS_REJECTED:
            report.rejected += 1
        else:
            report.errors += 1


class LoadGenerator:
    """Drive a live server at a target TPS and collect ground truth."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        duration: float,
        target_tps: float = 200.0,
        connections: int = 8,
        updates_per_tx: int = 2,
        update_size_bytes: int = 100,
        num_objects: int = 1_000_000,
        skew: Optional[SkewSpec] = None,
        seed: int = 1,
    ):
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        if connections < 1:
            raise ConfigurationError(
                f"connections must be >= 1, got {connections}"
            )
        if target_tps <= 0:
            raise ConfigurationError(
                f"target_tps must be positive, got {target_tps}"
            )
        if updates_per_tx < 1:
            raise ConfigurationError(
                f"updates_per_tx must be >= 1, got {updates_per_tx}"
            )
        self.host = host
        self.port = port
        self.duration = duration
        self.target_tps = target_tps
        self.connections = connections
        self.updates_per_tx = updates_per_tx
        self.update_size_bytes = update_size_bytes
        self.num_objects = num_objects
        self.skew = skew
        self.seed = seed

        #: Per-connection closed-loop period that sums to ``target_tps``.
        self.period = connections / target_tps
        #: All clients share one chooser: the exclusivity constraint (no two
        #: concurrent transactions touch the same oid) must hold globally.
        self.chooser = OidChooser(num_objects, random.Random(seed), skew=skew)
        self._value = 0
        self.deadline = 0.0
        self.report = LoadReport()

    def next_value(self) -> int:
        """Globally unique values make recovered state unambiguous."""
        self._value += 1
        return self._value

    async def run(self) -> LoadReport:
        loop = asyncio.get_running_loop()
        start = loop.time()
        self.deadline = start + self.duration
        clients = [_Client(self, i) for i in range(self.connections)]
        await asyncio.gather(*(client.run() for client in clients))
        self.report.duration = loop.time() - start
        return self.report

    def write_manifest(self, path) -> None:
        manifest = RunManifest(
            label="live-loadgen",
            seed=self.seed,
            config={
                "host": self.host,
                "port": self.port,
                "duration": self.duration,
                "target_tps": self.target_tps,
                "connections": self.connections,
                "updates_per_tx": self.updates_per_tx,
                "update_size_bytes": self.update_size_bytes,
                "num_objects": self.num_objects,
                "skew": None if self.skew is None else {
                    "hot_fraction": self.skew.hot_fraction,
                    "hot_probability": self.skew.hot_probability,
                },
            },
            sim={},
            counters=self.report.counters(),
            metrics={
                "commit_latency": self.report.commit_latency.snapshot(),
                "oid_hot_picks": self.chooser.hot_picks,
                "oid_cold_picks": self.chooser.cold_picks,
            },
            wall_seconds=self.report.duration,
        )
        manifest.write(path)

