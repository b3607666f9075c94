"""The live phase of a workload: an open-loop driver against ``repro serve``.

The server (the workload's technique, fsync on) runs in its own process
under ``serve.py``,
which interleaves the probe with the server's CPU.  This process is the
load driver: it keeps at most ``nproc`` connections (and no more than
two), sends each transaction's BEGIN on its due instant, pipelines the
UPDATEs and the COMMIT as soon as the BEGIN response names the tid, and
times every commit from the instant it was due, so a stall counts against
every transaction it delays.  The rate sits far below the knee: the server
is idle most of the time, so latency is set by the group-commit deadline
and the fsync, not by CPU, and a slow host cannot grow a backlog.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.live import protocol
from repro.live.storage import FileBackedDatabase, read_log_directory
from repro.recovery.analyzer import LogScan
from repro.recovery.single_pass import SinglePassRecovery
from repro.recovery.verify import RecoveryVerifier
from repro.workload.generator import AckedUpdate

from probe import MARK_PREFIX, SETUP_REPEATS

#: Offered load: transactions per second, UPDATEs per transaction, bytes each.
RATE_TPS = 125.0
UPDATES_PER_TX = 2
UPDATE_BYTES = 100
#: Transactions offered before the measured window opens.
WARMUP_S = 1.0
#: Sub-windows of the measured window, each with its own CPU mark.
WINDOWS = 6
#: Upper bound on log blocks sealed per second: the group-commit pacer
#: seals at most one block per 5 ms deadline, plus blocks that fill.
SEALS_PER_S = 220
NUM_OBJECTS = 1_000_000
#: How long to wait for the last acks, the drain and each mark.
TIMEOUT_S = 30.0

HERE = Path(__file__).resolve().parent


def percentile(samples: List[float], q: int) -> float:
    """The ``q``-th percentile (1 to 99) of raw samples, linearly interpolated."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


@dataclass
class Tx:
    index: int
    due: float
    measured: bool
    updates: List[tuple]
    tid: int = 0
    acked: List[AckedUpdate] = field(default_factory=list)
    status: Optional[str] = None
    latency_s: float = 0.0
    done: Optional[asyncio.Future] = None


class Server:
    """One ``serve.py`` process and its mark lines."""

    def __init__(
        self,
        technique: str,
        log_dir: Path,
        log_blocks: int,
        lifetime_s: float,
        trace_out: Optional[Path],
    ):
        self.technique = technique
        self.log_dir = log_dir
        self.log_blocks = log_blocks
        self.lifetime_s = lifetime_s
        self.trace_out = trace_out
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self.marks_requested = 0
        self.marks_read: List[dict] = []

    async def start(self) -> None:
        argv = [sys.executable, str(HERE / "serve.py")]
        if self.trace_out is not None:
            argv += ["--trace-out", str(self.trace_out)]
        argv += [
            "--", "serve", "--technique", self.technique, "--port", "0",
            "--log-dir", str(self.log_dir),
            "--sizes", f"{self.log_blocks},16",
            # A server this process failed to stop drains and exits by itself.
            "--duration", str(self.lifetime_s),
        ]
        self.proc = await asyncio.create_subprocess_exec(
            *argv, stdout=asyncio.subprocess.PIPE
        )
        line = await self._line()
        if " on " not in line:
            raise RuntimeError(f"unexpected server banner: {line!r}")
        self.port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])

    async def _line(self) -> str:
        raw = await asyncio.wait_for(self.proc.stdout.readline(), TIMEOUT_S)
        if not raw:
            raise RuntimeError("server exited early")
        return raw.decode().rstrip("\n")

    def request_mark(self, final: bool = False) -> None:
        """Ask for a mark line; the final one also stops the server's probe."""
        self.proc.send_signal(signal.SIGUSR2 if final else signal.SIGUSR1)
        self.marks_requested += 1

    async def marks(self) -> List[dict]:
        """Every mark requested so far, read from the server's output."""
        while len(self.marks_read) < self.marks_requested:
            line = await self._line()
            if line.startswith(MARK_PREFIX):
                self.marks_read.append(json.loads(line[len(MARK_PREFIX):]))
        return self.marks_read

    async def stop(self) -> int:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        await asyncio.wait_for(self.proc.stdout.read(), TIMEOUT_S)
        return await asyncio.wait_for(self.proc.wait(), TIMEOUT_S)

    async def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


class Connection:
    """One pipelined connection; a reader task routes responses."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.begins: Dict[int, Tx] = {}
        self.by_tid: Dict[int, Tx] = {}
        self.protocol_errors = 0
        self.task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        try:
            while True:
                body = await protocol.read_frame(self.reader)
                if body is None:
                    return
                self._route(protocol.decode_response(body))
        except (protocol.ProtocolError, ConnectionError):
            self.protocol_errors += 1

    def _route(self, response) -> None:
        op, status = response[0], response[1]
        if op == protocol.OP_BEGIN:
            tx = self.begins.pop(response[2])
            if status != protocol.STATUS_OK:
                return self._settle(tx, protocol.STATUS_NAMES[status])
            tx.tid = response[3]
            self.by_tid[tx.tid] = tx
            for oid, value in tx.updates:
                protocol.write_frame(
                    self.writer,
                    protocol.encode_update(tx.tid, oid, value, UPDATE_BYTES),
                )
            protocol.write_frame(self.writer, protocol.encode_commit(tx.tid))
            return
        tx = self.by_tid.get(response[2])
        if tx is None or tx.status is not None:
            return
        if status != protocol.STATUS_OK:
            self.by_tid.pop(tx.tid, None)
            return self._settle(tx, protocol.STATUS_NAMES[status])
        if op == protocol.OP_UPDATE:
            oid, value = tx.updates[len(tx.acked)]
            tx.acked.append(AckedUpdate(oid, value, response[4], response[3], 0.0))
        elif op == protocol.OP_COMMIT:
            self.by_tid.pop(tx.tid, None)
            tx.acked = [u._replace(ack_time=response[3]) for u in tx.acked]
            tx.latency_s = time.perf_counter() - tx.due
            self._settle(tx, "ok")

    @staticmethod
    def _settle(tx: Tx, status: str) -> None:
        tx.status = status
        if not tx.done.done():
            tx.done.set_result(None)

    def send_begin(self, tx: Tx) -> None:
        self.begins[tx.index] = tx
        protocol.write_frame(self.writer, protocol.encode_begin(tx.index))

    async def close(self) -> None:
        self.writer.close()
        try:
            await asyncio.wait_for(self.task, TIMEOUT_S)
        except asyncio.TimeoutError:
            self.task.cancel()


def _connection_count() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _plan(seconds: float, rng: random.Random, t0: float) -> List[Tx]:
    """The offered transactions: due instants and (oid, value) updates.

    Oids are drawn from the seed; an oid is not reused within 512
    transactions, far more than are ever in flight at this rate, so no two
    concurrent transactions touch one object.  Values are unique.
    """
    total = int(round((WARMUP_S + seconds) * RATE_TPS))
    warm = int(round(WARMUP_S * RATE_TPS))
    recent: deque = deque()
    recent_set = set()
    txs = []
    for index in range(total):
        updates = []
        for _ in range(UPDATES_PER_TX):
            oid = rng.randrange(NUM_OBJECTS)
            while oid in recent_set:
                oid = rng.randrange(NUM_OBJECTS)
            recent.append(oid)
            recent_set.add(oid)
            if len(recent) > 512 * UPDATES_PER_TX:
                recent_set.discard(recent.popleft())
            value = (rng.getrandbits(40) << 20) | index
            updates.append((oid, value))
        txs.append(Tx(index, t0 + index / RATE_TPS, index >= warm, updates))
    return txs


def audit(log_dir: Path, txs: List[Tx]) -> dict:
    """After the graceful stop: every acked COMMIT on disk, recovery exact."""
    acked = [tx for tx in txs if tx.status == "ok"]
    images = read_log_directory(log_dir)
    scan = LogScan(images)
    on_disk = {(r.oid, r.lsn) for r in scan.committed_data_records()}
    missing_commits = sum(1 for tx in acked if tx.tid not in scan.committed_tids)
    missing_updates = sum(
        1 for tx in acked for u in tx.acked if (u.oid, u.lsn) not in on_disk
    )
    truth = [u for tx in acked for u in tx.acked]
    stable = FileBackedDatabase.load_snapshot(log_dir / "db.dat")
    recovery = SinglePassRecovery(images)
    recovered = recovery.recover(stable)
    report = RecoveryVerifier(truth).check_crash_consistency(
        float("inf"), recovered, scan=recovery.scan, stable=stable
    )
    manifest = json.loads((log_dir / "server-manifest.json").read_text())
    return {
        "log_bytes": manifest["counters"]["log.bytes_written"],
        "user_bytes": len(truth) * UPDATE_BYTES,
        "ok": (
            missing_commits == 0
            and missing_updates == 0
            and report.ok
            and not any(image.unreadable for image in images)
        ),
        "blocks": len(images),
        "missing_commits": missing_commits,
        "missing_updates": missing_updates,
        "lost": len(report.lost_updates),
        "phantom": len(report.phantom_objects),
        "records_applied": recovery.records_applied,
    }


async def _launch(
    technique: str, log_dir: Path, seconds: float, trace_out=None, *, serves: bool
):
    """Start a server and connect; ``serves=False`` only times its set-up.

    The log is sized so that it never wraps within the run: every COMMIT
    the server acks is still on disk for the audit.
    """
    log_blocks = int(SEALS_PER_S * (WARMUP_S + seconds + 5))
    server = Server(
        technique, log_dir, log_blocks, WARMUP_S + seconds + TIMEOUT_S * 4, trace_out
    )
    try:
        await server.start()
        conns = []
        for _ in range(_connection_count()):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            conns.append(Connection(reader, writer))
        server.request_mark(final=not serves)
        ready = (await server.marks())[-1]
    except BaseException:
        await server.kill()
        raise
    return server, conns, ready


async def _drive(
    technique: str, seconds: float, seed: int, work: Path, trace_out, launches: int
) -> dict:
    setups = []
    # Time ``launches`` launches; the last one serves the load.
    for launch in range(launches - 1):
        server, conns, ready = await _launch(
            technique, work / f"setup{launch}", seconds, serves=False
        )
        try:
            setups.append(ready["since_start"])
            for conn in conns:
                await conn.close()
            await server.stop()
        finally:
            await server.kill()
        shutil.rmtree(work / f"setup{launch}")

    log_dir = work / "log"
    server, conns, ready = await _launch(
        technique, log_dir, seconds, trace_out, serves=True
    )
    setups.append(ready["since_start"])
    try:
        loop = asyncio.get_running_loop()
        txs = _plan(seconds, random.Random(seed), time.perf_counter() + 0.05)
        lateness = []
        outstanding_peak = 0
        warm = sum(1 for tx in txs if not tx.measured)
        per_window = (len(txs) - warm) // WINDOWS
        starts = {warm + k * per_window for k in range(WINDOWS)}
        for tx in txs:
            if tx.index in starts:
                server.request_mark()
            delay = tx.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - tx.due)
            tx.done = loop.create_future()
            conns[tx.index % len(conns)].send_begin(tx)
            outstanding_peak = max(
                outstanding_peak, sum(len(c.begins) + len(c.by_tid) for c in conns)
            )
        pending = [tx.done for tx in txs if not tx.done.done()]
        if pending:
            await asyncio.wait(pending, timeout=TIMEOUT_S)
        for tx in txs:
            if tx.status is None:
                tx.status = "timeout"
        measured_end = time.perf_counter()
        server.request_mark(final=True)
        marks = (await server.marks())[1:]
        for conn in conns:
            await conn.close()
        exit_code = await server.stop()
    except BaseException:
        await server.kill()
        raise
    protocol_errors = sum(c.protocol_errors for c in conns)
    check = audit(log_dir, txs)
    measured = [tx for tx in txs if tx.measured]
    acked = [tx for tx in measured if tx.status == "ok"]
    latencies_ms = [tx.latency_s * 1000.0 for tx in acked]
    # Server CPU per commit in each sub-window (the last one also holds
    # the tail of acks); the median is robust to a stretch of slow disk.
    windows = []
    for k in range(WINDOWS):
        due = measured[k * per_window : (k + 1) * per_window if k < WINDOWS - 1 else None]
        commits = sum(1 for tx in due if tx.status == "ok")
        windows.append(1000.0 * marks[k + 1]["since_previous"]["reference_s"] / max(commits, 1))
    cpu = {
        key: sum(m["since_previous"][key] for m in marks[1:])
        for key in ("reference_s", "raw_cpu_s", "system_cpu_s", "probe_cpu_s", "probe_calls")
    }
    first_due = measured[0].due
    last_ack = max((tx.due + tx.latency_s for tx in acked), default=measured_end)
    statuses: Dict[str, int] = {}
    for tx in txs:
        statuses[tx.status] = statuses.get(tx.status, 0) + 1
    return {
        "ok": check["ok"] and exit_code == 0 and protocol_errors == 0 and bool(acked),
        "attempted": len(txs),
        "failed": sum(1 for tx in txs if tx.status != "ok"),
        "setup_s": statistics.median(s["reference_s"] for s in setups),
        "rss_mb": marks[-1]["rss_mb"],
        "metrics": {
            "commit_tps": (len(acked) / (last_ack - first_due), "tx/s"),
            "log_bytes_per_user_byte": (
                check["log_bytes"] / max(check["user_bytes"], 1), "ratio"),
            "server_cpu_ms_per_commit": (statistics.median(windows), "ms"),
        },
        "detail": {
            "technique": technique,
            "connections": len(conns),
            "rate_tps": RATE_TPS,
            "statuses": statuses,
            "audit": check,
            "server_exit": exit_code,
            "protocol_errors": protocol_errors,
            "setups": setups,
            "window_cpu": cpu,
            "window_cpu_ms_per_commit": windows,
            "window_wall_s": measured_end - measured[0].due,
            "samples": len(latencies_ms),
            "commit_p50_ms": percentile(latencies_ms, 50),
            "commit_p99_ms": percentile(latencies_ms, 99),
            "late_p50_ms": 1000.0 * percentile(lateness, 50),
            "late_p99_ms": 1000.0 * percentile(lateness, 99),
            "outstanding_peak": outstanding_peak,
        },
    }


def run_live(
    technique: str,
    seconds: float,
    seed: int,
    work: Path,
    trace_out=None,
    launches: int = SETUP_REPEATS,
) -> dict:
    """Run the live phase in ``work`` (created, and removed afterwards).

    The server is launched ``launches`` times: each launch times its
    set-up, and the last one serves ``seconds`` of measured load.  With
    ``trace_out`` the serving process is traced and writes its per-layer
    metrics there (see ``spans.py``).
    """
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return asyncio.run(_drive(technique, seconds, seed, work, trace_out, launches))
    finally:
        shutil.rmtree(work, ignore_errors=True)
