"""Integration tests for the live append/commit service.

The acceptance property: after a clean shutdown, every COMMIT the server
acknowledged is found by ``LogScan`` over the on-disk log files — the ack
really did mean durable.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import ConfigurationError
from repro.live import protocol
from repro.live.loadgen import LoadGenerator
from repro.live.server import LiveServer
from repro.live.storage import FileBackedDatabase, read_log_directory
from repro.recovery.analyzer import LogScan
from repro.recovery.single_pass import SinglePassRecovery
from repro.recovery.verify import RecoveryVerifier


async def _call(reader, writer, request):
    protocol.write_frame(writer, request)
    await writer.drain()
    body = await protocol.read_frame(reader)
    assert body is not None
    return protocol.decode_response(body)


async def _run_transactions(host, port, count, updates_per_tx=2, base_oid=0):
    """Run ``count`` sequential transactions; return acked commit info."""
    reader, writer = await asyncio.open_connection(host, port)
    acked = []  # (tid, [(oid, value, timestamp, lsn), ...], ack_time)
    oid = base_oid
    value = base_oid * 1000
    try:
        for _ in range(count):
            op, status, _, tid = await _call(
                reader, writer, protocol.encode_begin(1)
            )
            assert (op, status) == (protocol.OP_BEGIN, protocol.STATUS_OK)
            updates = []
            for _ in range(updates_per_tx):
                oid += 1
                value += 1
                op, status, rtid, lsn, timestamp = await _call(
                    reader, writer, protocol.encode_update(tid, oid, value, 100)
                )
                assert (op, status, rtid) == (
                    protocol.OP_UPDATE,
                    protocol.STATUS_OK,
                    tid,
                )
                updates.append((oid, value, timestamp, lsn))
            op, status, rtid, ack_time = await _call(
                reader, writer, protocol.encode_commit(tid)
            )
            assert (op, status, rtid) == (
                protocol.OP_COMMIT,
                protocol.STATUS_OK,
                tid,
            )
            acked.append((tid, updates, ack_time))
    finally:
        writer.close()
    return acked


class TestServerIntegration:
    def test_every_acked_commit_is_on_disk_after_shutdown(self, tmp_path):
        """200 transactions; LogScan must prove every acked COMMIT durable."""

        async def scenario():
            server = LiveServer(tmp_path, technique="el")
            run_task = asyncio.ensure_future(server.run())
            while server._server is None:
                await asyncio.sleep(0.01)
            assert server.port != 0  # ephemeral port was assigned
            results = await asyncio.gather(
                *(
                    _run_transactions(
                        server.host, server.port, 50, base_oid=i * 10_000
                    )
                    for i in range(4)
                )
            )
            await server.stop()
            await run_task
            return server, [tx for chunk in results for tx in chunk]

        server, acked = asyncio.run(scenario())
        assert len(acked) == 200
        assert server.commits_acked == 200

        images = read_log_directory(tmp_path)
        assert images and not any(i.unreadable for i in images)
        scan = LogScan(images)
        acked_tids = {tid for tid, _, _ in acked}
        assert acked_tids <= scan.committed_tids
        on_disk = {(r.oid, r.lsn) for r in scan.committed_data_records()}
        for _tid, updates, _ack_time in acked:
            for oid, _value, _timestamp, lsn in updates:
                assert (oid, lsn) in on_disk

        # And recovery over those same files reproduces every acked value.
        from repro.workload.generator import AckedUpdate

        truth = [
            AckedUpdate(oid, value, timestamp, lsn, ack_time)
            for _tid, updates, ack_time in acked
            for oid, value, timestamp, lsn in updates
        ]
        stable = FileBackedDatabase.load_snapshot(tmp_path / "db.dat")
        recovery = SinglePassRecovery(images)
        recovered = recovery.recover(stable)
        report = RecoveryVerifier(truth).check_crash_consistency(
            float("inf"), recovered, scan=recovery.scan, stable=stable
        )
        assert report.ok, (report.lost_updates[:3], report.phantom_objects[:3])

    def test_loadgen_against_live_server(self, tmp_path):
        """The closed-loop generator commits cleanly against a live server."""

        async def scenario():
            server = LiveServer(tmp_path, technique="el")
            run_task = asyncio.ensure_future(server.run())
            while server._server is None:
                await asyncio.sleep(0.01)
            gen = LoadGenerator(
                server.host,
                server.port,
                duration=1.0,
                target_tps=100.0,
                connections=4,
            )
            report = await gen.run()
            await server.stop()
            await run_task
            return report

        report = asyncio.run(scenario())
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


class TestServerConfig:
    def test_rejects_bad_inflight_and_group_commit(self, tmp_path):
        with pytest.raises(ConfigurationError):
            LiveServer(tmp_path, max_inflight=0)
        with pytest.raises(ConfigurationError):
            LiveServer(tmp_path, group_commit_seconds=0.0)

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
