"""E-live: the live append/commit service, EL versus FW, plus SIGKILL.

Not a paper artifact: the paper evaluates the techniques in simulation;
this bench runs them for real — wall-clock scheduler, preallocated log
files, fsync — and measures what the service actually sustains.

Three measurements:

* **Throughput/latency**: a closed-loop load generator drives an in-process
  EL server and an FW server at the same target rate; committed TPS and
  p50/p95/p99 commit latency land in ``results/BENCH_live.json``.
* **Acceptance bar**: the single-shard EL server must sustain >= 200
  committed TPS with zero protocol errors.
* **SIGKILL crash consistency**: a subprocess server is killed with
  ``SIGKILL`` mid-load; recovery over its log files plus the database
  snapshot must reproduce every update the clients saw acknowledged —
  no lost acked update, no phantom object.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time

from repro.live.loadgen import LoadGenerator
from repro.live.server import LiveServer
from repro.live.storage import FileBackedDatabase, read_log_directory
from repro.recovery.single_pass import SinglePassRecovery
from repro.recovery.verify import RecoveryVerifier

#: Offered load for the throughput points.  The acceptance bar is 200
#: committed TPS; offering 400 leaves the closed loop room to show what
#: the service saturates at.
TARGET_TPS = 400.0
DURATION_SECONDS = 4.0
CONNECTIONS = 16


def _measure(tmp_path, technique: str) -> dict:
    """One in-process server + loadgen run; returns a trajectory point."""

    async def scenario():
        server = LiveServer(tmp_path / f"serve-{technique}", technique=technique)
        run_task = asyncio.ensure_future(server.run())
        while server._server is None:
            await asyncio.sleep(0.01)
        gen = LoadGenerator(
            server.host,
            server.port,
            duration=DURATION_SECONDS,
            target_tps=TARGET_TPS,
            connections=CONNECTIONS,
        )
        report = await gen.run()
        await server.stop()
        await run_task
        return server, report

    server, report = asyncio.run(scenario())
    pcts = report.commit_latency.snapshot()
    return {
        "technique": technique,
        "target_tps": TARGET_TPS,
        "duration": round(report.duration, 3),
        "committed": report.committed,
        "tps": round(report.tps, 1),
        "killed": report.killed,
        "errors": report.errors,
        "protocol_errors": report.protocol_errors,
        "p50_ms": round(pcts["p50"] * 1000, 3) if pcts["p50"] else None,
        "p95_ms": round(pcts["p95"] * 1000, 3) if pcts["p95"] else None,
        "p99_ms": round(pcts["p99"] * 1000, 3) if pcts["p99"] else None,
        "log_blocks_written": server.counters()["log.blocks_written"],
        "log_fsyncs": server.counters()["log.fsyncs"],
    }


def _spawn_server(log_dir) -> tuple:
    """Start ``repro serve`` as a subprocess; return (process, port)."""
    env = dict(os.environ)
    src = str((os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    env["PYTHONPATH"] = os.path.join(src, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--technique",
            "el",
            "--port",
            "0",
            "--log-dir",
            str(log_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 30.0
    banner = process.stdout.readline()
    while time.monotonic() < deadline:
        match = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
        if match:
            return process, int(match.group(1))
        if process.poll() is not None:
            break
        banner = process.stdout.readline()
    process.kill()
    raise AssertionError(f"server never announced a port: {banner!r}")


def _sigkill_run(log_dir) -> dict:
    """Kill a live server mid-load; verify recovery against client truth."""
    process, port = _spawn_server(log_dir)
    try:
        gen = LoadGenerator(
            "127.0.0.1",
            port,
            duration=20.0,  # far beyond the kill point; clients die with it
            target_tps=TARGET_TPS,
            connections=8,
        )

        async def scenario():
            load = asyncio.ensure_future(gen.run())
            await asyncio.sleep(2.0)
            process.send_signal(signal.SIGKILL)
            return await load

        report = asyncio.run(scenario())
    finally:
        process.kill()
        process.wait(timeout=30)

    assert report.committed > 0, "no transaction committed before the kill"

    images = read_log_directory(log_dir)
    stable = FileBackedDatabase.load_snapshot(log_dir / "db.dat")
    recovery = SinglePassRecovery(images)
    recovered = recovery.recover(stable)
    verification = RecoveryVerifier(report.acked_updates).check_crash_consistency(
        float("inf"), recovered, scan=recovery.scan, stable=stable
    )
    assert verification.ok, (
        f"crash consistency violated after SIGKILL: "
        f"{len(verification.lost_updates)} lost acked updates "
        f"(e.g. {verification.lost_updates[:3]}), "
        f"{len(verification.phantom_objects)} phantom objects "
        f"(e.g. {verification.phantom_objects[:3]})"
    )
    return {
        "committed_before_kill": report.committed,
        "acked_updates": len(report.acked_updates),
        "log_blocks": len(images),
        "unreadable_blocks": sum(1 for i in images if i.unreadable),
        "records_applied": recovery.records_applied,
        "stable_objects": len(stable),
        "lost_updates": len(verification.lost_updates),
        "phantom_objects": len(verification.phantom_objects),
        "ok": verification.ok,
    }


def test_live_service(publish, results_dir, tmp_path):
    started = time.perf_counter()
    points = [_measure(tmp_path, "el"), _measure(tmp_path, "fw")]
    sigkill = _sigkill_run(tmp_path / "sigkill")
    elapsed = time.perf_counter() - started

    lines = [
        "live service: closed-loop load, "
        f"{TARGET_TPS:.0f} TPS offered for {DURATION_SECONDS:.0f}s "
        f"({CONNECTIONS} connections)",
        "",
        f"{'technique':<10} {'TPS':>8} {'p50 ms':>8} {'p95 ms':>8} "
        f"{'p99 ms':>8} {'killed':>7} {'errors':>7}",
    ]
    for p in points:
        lines.append(
            f"{p['technique']:<10} {p['tps']:>8.1f} {p['p50_ms']:>8.2f} "
            f"{p['p95_ms']:>8.2f} {p['p99_ms']:>8.2f} {p['killed']:>7} "
            f"{p['errors'] + p['protocol_errors']:>7}"
        )
    lines += [
        "",
        f"SIGKILL mid-load: {sigkill['committed_before_kill']} commits acked "
        f"before kill, {sigkill['records_applied']} records replayed, "
        f"{sigkill['lost_updates']} lost / {sigkill['phantom_objects']} "
        f"phantom -> {'OK' if sigkill['ok'] else 'FAILED'}",
    ]
    text = "\n".join(lines)
    publish("live_service", text)
    (results_dir / "live_service.txt").write_text(text + "\n", encoding="utf-8")

    entry = {
        "bench": "live_service",
        "wall_seconds": round(elapsed, 3),
        "points": points,
        "sigkill": sigkill,
    }
    trajectory_path = results_dir / "BENCH_live.json"
    trajectory = []
    if trajectory_path.is_file():
        try:
            trajectory = json.loads(trajectory_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            trajectory = []
    trajectory.append(entry)
    trajectory_path.write_text(
        json.dumps(trajectory, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

    el = points[0]
    assert el["tps"] >= 200.0, (
        f"EL live server sustained only {el['tps']} committed TPS (need >= 200)"
    )
    assert el["protocol_errors"] == 0 and el["errors"] == 0
    assert el["p99_ms"] is not None
    for p in points:
        assert p["committed"] > 0, f"{p['technique']} committed nothing"
