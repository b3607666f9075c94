"""Integration tests for the live append/commit service.

The acceptance property: after a clean shutdown, every COMMIT the server
acknowledged is found by ``LogScan`` over the on-disk log files — the ack
really did mean durable.
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
from pathlib import Path

import pytest

import repro

from repro.errors import ConfigurationError
from repro.faults.crash import check_crash
from repro.harness.config import SimulationConfig
from repro.harness.simulator import Simulation
from repro.live import protocol
from repro.live.loadgen import LoadGenerator
from repro.live.server import DEFAULT_NUM_OBJECTS, LiveServer
from repro.live.storage import FileBackedDatabase, read_log_directory
from repro.obs import ObsConfig
from repro.recovery.analyzer import LogScan


async def _call(reader, writer, request):
    protocol.write_frame(writer, request)
    await writer.drain()
    body = await protocol.read_frame(reader)
    assert body is not None
    return protocol.decode_response(body)


async def _run_transactions(
    host, port, count, updates_per_tx=2, base_oid=0, shard_width=0
):
    """Run ``count`` sequential transactions; return acked commit info.

    With ``shard_width`` set, every other update of a transaction lands
    that many objects further on (in the next shard's oid range).
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await _transact(
            reader, writer, count, updates_per_tx, base_oid, shard_width
        )
    finally:
        writer.close()


async def _transact(reader, writer, count, updates_per_tx, base_oid, shard_width=0):
    """``count`` sequential transactions on one open connection."""
    acked = []  # (tid, [(oid, value, timestamp, lsn), ...], ack_time)
    oid = base_oid
    value = base_oid * 1000
    for _ in range(count):
        op, status, _, tid = await _call(
            reader, writer, protocol.encode_begin(1)
        )
        assert (op, status) == (protocol.OP_BEGIN, protocol.STATUS_OK)
        updates = []
        for index in range(updates_per_tx):
            oid += 1
            value += 1
            target = oid + (index % 2) * shard_width
            op, status, rtid, lsn, timestamp = await _call(
                reader, writer, protocol.encode_update(tid, target, value, 100)
            )
            assert (op, status, rtid) == (
                protocol.OP_UPDATE,
                protocol.STATUS_OK,
                tid,
            )
            updates.append((target, value, timestamp, lsn))
        op, status, rtid, ack_time = await _call(
            reader, writer, protocol.encode_commit(tid)
        )
        assert (op, status, rtid) == (
            protocol.OP_COMMIT,
            protocol.STATUS_OK,
            tid,
        )
        acked.append((tid, updates, ack_time))
    return acked


async def _serve_clients(server, clients):
    """Run ``server``, await ``clients(server)``, drain; their result."""
    run_task = asyncio.ensure_future(server.run())
    while server._server is None:
        await asyncio.sleep(0.01)
    try:
        return await clients(server)
    finally:
        await server.stop()
        await run_task


def _assert_acks_durable_and_recovered(log_dir, acked):
    """LogScan finds every acked COMMIT; recovery loses and invents nothing."""
    from repro.workload.generator import AckedUpdate

    images = read_log_directory(log_dir)
    assert images and not any(i.unreadable for i in images)
    scan = LogScan(images)
    assert {tid for tid, _, _ in acked} <= scan.committed_tids
    on_disk = {(r.oid, r.lsn) for r in scan.committed_data_records()}
    for _tid, updates, _ack_time in acked:
        for oid, _value, _timestamp, lsn in updates:
            assert (oid, lsn) in on_disk

    truth = [
        AckedUpdate(oid, value, timestamp, lsn, ack_time)
        for _tid, updates, ack_time in acked
        for oid, value, timestamp, lsn in updates
    ]
    stable = FileBackedDatabase.load_snapshot(log_dir / "db.dat")
    report = check_crash(images, stable, truth, float("inf")).report
    assert report.ok, (report.lost_updates[:3], report.phantom_objects[:3])


async def _load_in_process(log_dir, technique, duration, target_tps, connections):
    """Serve ``technique`` in-process under closed-loop load; the report."""
    server = LiveServer(log_dir, technique=technique)
    run_task = asyncio.ensure_future(server.run())
    while server._server is None:
        await asyncio.sleep(0.01)
    gen = LoadGenerator(
        server.host,
        server.port,
        duration=duration,
        target_tps=target_tps,
        connections=connections,
    )
    report = await gen.run()
    await server.stop()
    await run_task
    return report


class TestServerIntegration:
    def test_every_acked_commit_is_on_disk_after_shutdown(self, tmp_path):
        """200 transactions; LogScan must prove every acked COMMIT durable."""

        async def clients(server):
            assert server.port != 0  # ephemeral port was assigned
            results = await asyncio.gather(
                *(
                    _run_transactions(
                        server.host, server.port, 50, base_oid=i * 10_000
                    )
                    for i in range(4)
                )
            )
            return [tx for chunk in results for tx in chunk]

        server = LiveServer(tmp_path, technique="el")
        acked = asyncio.run(_serve_clients(server, clients))
        assert len(acked) == 200
        assert server.commits_acked == 200
        assert server.metrics.get("el.committed").value == 200
        manifest = json.loads((tmp_path / "server-manifest.json").read_text())
        # Encoded slot bytes: every block's header and wire records, more
        # than the generations' accounting bytes.
        declared = sum(
            manifest["metrics"][f"log.gen{g}.bytes_written"]["value"] for g in (0, 1)
        )
        assert manifest["counters"]["log.bytes_written"] > declared
        # And recovery over those same files reproduces every acked value.
        _assert_acks_durable_and_recovered(tmp_path, acked)

    @pytest.mark.parametrize("technique", ["el", "fw"])
    def test_sharded_server_acks_cross_shard_commits_durably(
        self, tmp_path, technique
    ):
        """Two shards; every transaction updates both shards' oid ranges."""
        shard_width = DEFAULT_NUM_OBJECTS // 2

        async def clients(server):
            results = await asyncio.gather(
                *(
                    _run_transactions(
                        server.host,
                        server.port,
                        50,
                        base_oid=i * 10_000,
                        shard_width=shard_width,
                    )
                    for i in range(4)
                )
            )
            return [tx for chunk in results for tx in chunk]

        server = LiveServer(tmp_path, technique=technique, shards=2)
        acked = asyncio.run(_serve_clients(server, clients))
        assert len(acked) == 200
        assert server.commits_acked == 200
        assert server.metrics.get("shard.committed").value == 200
        assert server.manager.cross_shard_commits == 200
        assert {p.name for p in tmp_path.glob("*.log")} >= {
            "shard0-gen0.log",
            "shard1-gen0.log",
        }
        _assert_acks_durable_and_recovered(tmp_path, acked)

    def test_loadgen_against_live_server(self, tmp_path):
        """The closed-loop generator commits cleanly against a live server."""
        report = asyncio.run(_load_in_process(tmp_path, "el", 1.0, 100.0, 4))
        assert report.ok
        assert report.committed > 0
        assert report.protocol_errors == 0
        assert report.commit_latency.count == report.committed
        assert len(report.acked_updates) == report.updates_acked
        counters = json.loads((tmp_path / "server-manifest.json").read_text())["counters"]
        for name in ("server.commit_latency", "log.write_latency"):
            hist = counters[name]
            assert hist["count"] > 0, name
            assert hist["p50"] <= hist["p95"] <= hist["p99"] <= hist["max"], name

    def test_live_registry_uses_the_simulators_names(self, tmp_path):
        """EL (18,16) served and simulated: the server reports the
        simulator's names for the manager's counts and adds only what
        the manager cannot see."""
        config = SimulationConfig.ephemeral(
            (18, 16), runtime=5.0, obs=ObsConfig(metrics=True)
        )
        simulation = Simulation(config)
        simulation.run()
        sim_names = set(simulation.obs.metrics.names())

        async def clients(server):
            return await _run_transactions(server.host, server.port, 20)

        server = LiveServer(tmp_path, technique="el", generation_sizes=(18, 16))
        asyncio.run(_serve_clients(server, clients))
        live_names = set(server.metrics.names())
        assert sim_names <= live_names
        assert live_names - sim_names == {
            "server.commit_latency",
            "server.rejections",
            "server.protocol_errors",
            "server.internal_errors",
            "log.bytes_written",
            "log.fsyncs",
            "log.write_latency",
        }

    def test_unknown_and_stale_tids_get_error_status(self, tmp_path):
        async def scenario():
            server = LiveServer(tmp_path, technique="el")
            run_task = asyncio.ensure_future(server.run())
            while server._server is None:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            # UPDATE against a tid that never began.
            _, status, *_ = await _call(
                reader, writer, protocol.encode_update(999, 1, 1, 100)
            )
            assert status == protocol.STATUS_ERROR
            # ABORT of an already-aborted transaction.
            _, _, _, tid = await _call(reader, writer, protocol.encode_begin(1))
            _, status, _ = await _call(reader, writer, protocol.encode_abort(tid))
            assert status == protocol.STATUS_OK
            _, status, _ = await _call(reader, writer, protocol.encode_abort(tid))
            assert status == protocol.STATUS_ERROR
            writer.close()
            await server.stop()
            await run_task
            return server

        server = asyncio.run(scenario())
        assert server.aborts == 1

    def test_begin_rejected_while_draining(self, tmp_path):
        async def scenario():
            server = LiveServer(tmp_path, technique="el")
            run_task = asyncio.ensure_future(server.run())
            while server._server is None:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            server._draining = True  # drain flag flips before listener close
            _, status, _, tid = await _call(
                reader, writer, protocol.encode_begin(1)
            )
            assert status == protocol.STATUS_REJECTED
            assert tid == 0
            writer.close()
            server._draining = False
            await server.stop()
            await run_task
            return server

        server = asyncio.run(scenario())
        assert server.rejections == 1

    def test_abandoned_connection_aborts_active_transaction(self, tmp_path):
        async def scenario():
            server = LiveServer(tmp_path, technique="el")
            run_task = asyncio.ensure_future(server.run())
            while server._server is None:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            _, _, _, tid = await _call(reader, writer, protocol.encode_begin(1))
            await _call(reader, writer, protocol.encode_update(tid, 5, 50, 100))
            writer.close()  # vanish mid-transaction
            await writer.wait_closed()
            for _ in range(100):
                if not server._txes:
                    break
                await asyncio.sleep(0.01)
            await server.stop()
            await run_task
            return server

        server = asyncio.run(scenario())
        assert server.aborts == 1
        assert not server._txes

    def test_killed_transaction_is_released_when_its_client_leaves(
        self, tmp_path
    ):
        """A killed, abandoned tid leaves the server; connections track
        only their unresolved tids."""

        async def clients(server):
            quiet = await asyncio.open_connection(server.host, server.port)
            _, _, _, quiet_tid = await _call(*quiet, protocol.encode_begin(1))
            await _call(*quiet, protocol.encode_update(quiet_tid, 1, 1, 100))
            # The quiet transaction's BEGIN is the firewall of a 4-block
            # FW log: this load has to kill it to make room.
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            await _transact(reader, writer, 60, 10, base_oid=1_000)
            assert server.kills_observed == 1
            _, _, _, tid = await _call(reader, writer, protocol.encode_begin(1))
            assert server._txes[tid].conn_tids == {tid}
            await _call(reader, writer, protocol.encode_abort(tid))
            writer.close()
            quiet[1].close()  # vanish without reading the KILLED status
            await quiet[1].wait_closed()
            for _ in range(100):
                if quiet_tid not in server._txes:
                    break
                await asyncio.sleep(0.01)
            # Checked while serving: the drain would release it anyway.
            assert quiet_tid not in server._txes

        server = LiveServer(tmp_path, technique="fw", generation_sizes=(4,))
        asyncio.run(_serve_clients(server, clients))


def _spawn_server(log_dir):
    """Start ``repro serve --technique el`` as a subprocess; (process, port)."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--technique", "el",
         "--port", "0", "--log-dir", str(log_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    deadline = time.monotonic() + 30.0
    banner = ""
    while time.monotonic() < deadline and process.poll() is None:
        banner = process.stdout.readline()
        match = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
        if match:
            return process, int(match.group(1))
    process.kill()
    process.wait(timeout=30)
    raise AssertionError(f"server never announced a port: {banner!r}")


class TestServiceGates:
    def test_el_sustains_200_tps_and_fw_commits(self, tmp_path):
        """EL commits >= 200 TPS of the 400 offered; FW commits at all.

        Headroom, measured on a 2-core box, three 4 s runs per load: idle
        388-389 committed TPS; with 1 or 2 busy-looping processes 387-390;
        with 4, 375-383; with 8, 340-374.  The load is paced, so CPU
        contention barely moves it, and a reading near 200 points at the
        service, not at a busy machine.
        """
        el = asyncio.run(_load_in_process(tmp_path / "el", "el", 4.0, 400.0, 16))
        assert el.tps >= 200.0, el.tps
        assert el.errors == 0 and el.protocol_errors == 0
        assert el.commit_latency.snapshot()["p99"] is not None
        fw = asyncio.run(_load_in_process(tmp_path / "fw", "fw", 2.0, 400.0, 16))
        assert fw.committed > 0

    def test_sigkill_mid_load_loses_nothing(self, tmp_path):
        """SIGKILL a serving process mid-load; recovery keeps every ack.

        Recovery over the log files plus the database snapshot must show
        no lost acknowledged update and no phantom object.  This gate is
        weaker than it looks: the kill usually lands after the installs it
        races have finished, so recovery often replays no log record at
        all (0, 0, 7 and 16 records in four runs on a 2-core box).  A
        kill/restart loop that requires replay is open (ROADMAP item 3).
        """
        log_dir = tmp_path / "sigkill"
        process, port = _spawn_server(log_dir)
        try:
            gen = LoadGenerator(
                "127.0.0.1",
                port,
                duration=20.0,  # far beyond the kill; clients die with it
                target_tps=400.0,
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
            process.stdout.close()
        assert report.committed > 0, "no transaction committed before the kill"

        verdict = check_crash(
            read_log_directory(log_dir),
            FileBackedDatabase.load_snapshot(log_dir / "db.dat"),
            report.acked_updates,
            float("inf"),
        ).report
        assert verdict.lost_updates == [], verdict.lost_updates[:3]
        assert verdict.phantom_objects == [], verdict.phantom_objects[:3]


class TestServerConfig:
    def test_rejects_bad_inflight_and_group_commit(self, tmp_path):
        with pytest.raises(ConfigurationError):
            LiveServer(tmp_path, max_inflight=0)

    def test_rejects_unknown_technique(self, tmp_path):
        async def scenario():
            server = LiveServer(tmp_path, technique="hybrid")
            with pytest.raises(ConfigurationError):
                await server.start()

        asyncio.run(scenario())


class TestLoadGeneratorConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            LoadGenerator("h", 1, duration=0.0)
        with pytest.raises(ConfigurationError):
            LoadGenerator("h", 1, duration=1.0, connections=0)
        with pytest.raises(ConfigurationError):
            LoadGenerator("h", 1, duration=1.0, target_tps=0.0)
        with pytest.raises(ConfigurationError):
            LoadGenerator("h", 1, duration=1.0, updates_per_tx=0)
