"""Tests for file-backed log and database storage (live backend)."""

from __future__ import annotations

import asyncio
import struct
import zlib

import pytest

from repro.constants import BLOCK_PAYLOAD_BYTES
from repro.db.objects import ObjectVersion
from repro.disk.block import BlockAddress, BlockImage
from repro.errors import ConfigurationError
from repro.live.clock import RealTimeScheduler
from repro.live.storage import (
    SLOT_BYTES,
    SLOT_HEADER_BYTES,
    FileBackedDatabase,
    FileBackedDrive,
    decode_slot,
    encode_slot,
    read_drive_file,
    read_log_directory,
)
from repro.obs.metrics import MetricsRegistry
from repro.records.data import DataLogRecord
from repro.records.encoding import block_checksum
from repro.records.tx import BeginRecord, CommitRecord


def sealed_image(slot: int, *records, generation: int = 0) -> BlockImage:
    img = BlockImage(BlockAddress(generation, slot), BLOCK_PAYLOAD_BYTES)
    for record in records:
        img.add(record)
    img.seal()
    img.record_checksum()
    return img


def sample_records(tid: int = 7, base_lsn: int = 10):
    return (
        BeginRecord(base_lsn, tid, 1.5),
        DataLogRecord(base_lsn + 1, tid, 1.6, 100, 42, 4242),
        DataLogRecord(base_lsn + 2, tid, 1.7, 250, 43, 4343),
        CommitRecord(base_lsn + 3, tid, 1.8),
    )


def write_one_block(tmp_path, image, capacity: int = 4):
    """Write ``image`` through a real drive, wait for durability, close.

    Returns the file and the registry the drive counted into."""
    from concurrent.futures import ThreadPoolExecutor

    path = tmp_path / "gen0.log"
    metrics = MetricsRegistry()

    async def scenario():
        sched = RealTimeScheduler(asyncio.get_running_loop())
        executor = ThreadPoolExecutor(max_workers=2)
        drive = FileBackedDrive(
            sched, path, capacity, executor=executor, metrics=metrics
        )
        durable = asyncio.Event()
        drive.write_block(image, durable.set)
        await asyncio.wait_for(durable.wait(), timeout=5.0)
        executor.shutdown(wait=True)
        drive.close()
        sched.close()

    asyncio.run(scenario())
    return path, metrics


class TestSlotRoundTrip:
    def test_checksum_round_trip_through_real_file(self, tmp_path):
        records = sample_records()
        image = sealed_image(2, *records)
        image.write_lsn = 13
        original_checksum = image.checksum
        path, metrics = write_one_block(tmp_path, image)

        assert metrics.get("log.write_latency").count == 1
        assert metrics.get("log.fsyncs").value >= 1
        assert path.stat().st_size == 4 * SLOT_BYTES

        images = read_drive_file(path, generation=0)
        assert len(images) == 1  # unwritten slots are skipped, not unreadable
        decoded = images[0]
        assert not decoded.unreadable
        assert decoded.address == BlockAddress(0, 2)
        assert decoded.write_lsn == 13
        assert decoded.checksum_ok()
        # The decoded records hash to the original content checksum: nothing
        # was lost or reordered crossing the file boundary.
        assert block_checksum(decoded.records) == original_checksum
        assert [(r.lsn, r.tid, r.timestamp) for r in decoded.records] == [
            (r.lsn, r.tid, r.timestamp) for r in records
        ]
        data = [r for r in decoded.records if isinstance(r, DataLogRecord)]
        assert [(r.oid, r.value, r.size) for r in data] == [
            (42, 4242, 100),
            (43, 4343, 250),
        ]

    def test_corrupt_payload_byte_reads_back_unreadable(self, tmp_path):
        image = sealed_image(1, *sample_records())
        path, _ = write_one_block(tmp_path, image)
        raw = bytearray(path.read_bytes())
        offset = SLOT_BYTES * 1 + SLOT_HEADER_BYTES + 5
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))

        images = read_drive_file(path, generation=0)
        assert len(images) == 1
        assert images[0].unreadable

    def test_slot_mismatch_is_unreadable(self):
        image = sealed_image(3, *sample_records())
        buffer = encode_slot(image, shard=0, generation=0)
        # Read back as if it sat in slot 1: a misplaced write must not pass.
        decoded = decode_slot(
            buffer + b"\x00" * (SLOT_BYTES - len(buffer)), generation=0, slot=1
        )
        assert decoded is not None and decoded.unreadable

    def test_never_written_slot_decodes_to_none(self):
        assert decode_slot(b"\x00" * SLOT_BYTES, generation=0, slot=0) is None

    def test_read_log_directory_requires_generation_in_name(self, tmp_path):
        (tmp_path / "mystery.log").write_bytes(b"\x00" * SLOT_BYTES)
        with pytest.raises(ConfigurationError):
            read_log_directory(tmp_path)

    def test_read_log_directory_merges_generations(self, tmp_path):
        path0, _ = write_one_block(tmp_path, sealed_image(0, *sample_records()))
        image1 = sealed_image(1, *sample_records(tid=8, base_lsn=20), generation=1)
        async def scenario():
            from concurrent.futures import ThreadPoolExecutor

            sched = RealTimeScheduler(asyncio.get_running_loop())
            executor = ThreadPoolExecutor(max_workers=1)
            drive = FileBackedDrive(
                sched,
                tmp_path / "gen1.log",
                4,
                executor=executor,
                metrics=MetricsRegistry(),
                generation=1,
            )
            durable = asyncio.Event()
            drive.write_block(image1, durable.set)
            await asyncio.wait_for(durable.wait(), timeout=5.0)
            executor.shutdown(wait=True)
            drive.close()
            sched.close()

        asyncio.run(scenario())
        images = read_log_directory(tmp_path)
        assert sorted(i.address.generation for i in images) == [0, 1]


class TestFileBackedDrive:
    def test_rejects_out_of_range_slot(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        async def scenario():
            sched = RealTimeScheduler(asyncio.get_running_loop())
            executor = ThreadPoolExecutor(max_workers=1)
            drive = FileBackedDrive(
                sched,
                tmp_path / "gen0.log",
                2,
                executor=executor,
                metrics=MetricsRegistry(),
            )
            with pytest.raises(ConfigurationError):
                drive.write_block(sealed_image(2, *sample_records()), lambda: None)
            executor.shutdown(wait=True)
            drive.close()
            sched.close()

        asyncio.run(scenario())

    def test_batched_writes_share_fsyncs(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        metrics = MetricsRegistry()

        async def scenario():
            sched = RealTimeScheduler(asyncio.get_running_loop())
            executor = ThreadPoolExecutor(max_workers=1)
            drive = FileBackedDrive(
                sched, tmp_path / "gen0.log", 16, executor=executor, metrics=metrics
            )
            remaining = 8
            done = asyncio.Event()

            def landed():
                nonlocal remaining
                remaining -= 1
                if remaining == 0:
                    done.set()

            for slot in range(8):
                drive.write_block(
                    sealed_image(slot, *sample_records(base_lsn=slot * 10)),
                    landed,
                )
            await asyncio.wait_for(done.wait(), timeout=5.0)
            executor.shutdown(wait=True)
            drive.close()
            sched.close()

        asyncio.run(scenario())
        # Coalescing: one pump drain fsyncs a whole batch, so 8 back-to-back
        # writes need strictly fewer than 8 data fsyncs.
        assert metrics.get("log.fsyncs").value < 8
        assert metrics.get("log.write_latency").count == 8


class TestFileBackedDatabase:
    def test_install_round_trips_through_snapshot(self, tmp_path):
        path = tmp_path / "db.dat"
        db = FileBackedDatabase(path, 1000)
        db.install(5, ObjectVersion(value=55, timestamp=1.25, lsn=9))
        db.install(17, ObjectVersion(value=77, timestamp=2.5, lsn=12))
        # An older version must neither install nor persist.
        assert not db.install(5, ObjectVersion(value=1, timestamp=0.5, lsn=3))
        db.close()

        snapshot = FileBackedDatabase.load_snapshot(path)
        assert set(snapshot) == {5, 17}
        assert snapshot[5] == ObjectVersion(value=55, timestamp=1.25, lsn=9)
        assert snapshot[17] == ObjectVersion(value=77, timestamp=2.5, lsn=12)

    def test_torn_slot_is_treated_as_never_flushed(self, tmp_path):
        path = tmp_path / "db.dat"
        db = FileBackedDatabase(path, 100)
        db.install(3, ObjectVersion(value=33, timestamp=1.0, lsn=4))
        db.install(7, ObjectVersion(value=70, timestamp=1.1, lsn=5))
        db.close()

        raw = bytearray(path.read_bytes())
        raw[3 * 32] ^= 0xFF  # tear object 3's slot
        path.write_bytes(bytes(raw))
        snapshot = FileBackedDatabase.load_snapshot(path)
        assert set(snapshot) == {7}

    def test_snapshot_matches_in_memory_state(self, tmp_path):
        path = tmp_path / "db.dat"
        db = FileBackedDatabase(path, 50)
        for oid in range(10):
            db.install(
                oid, ObjectVersion(value=oid * 2, timestamp=float(oid), lsn=oid)
            )
        db.close()
        snapshot = FileBackedDatabase.load_snapshot(path)
        assert snapshot == {oid: db.get(oid) for oid in range(10)}
