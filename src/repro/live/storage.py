"""File-backed log and database storage for the live backend.

The on-disk log format wraps the existing record wire encoding
(:class:`repro.records.encoding.RecordCodec`) in fixed-size slots, one per
block of each generation's circular array, so a live log file is a direct
materialisation of the simulator's block layout: slot *i* of generation *g*
lives at byte offset ``i * SLOT_BYTES`` of ``gen{g}.log``.  Reading a file
back yields the same :class:`~repro.disk.block.BlockImage` objects the
simulator produces, which means ``LogScan`` / ``SinglePassRecovery`` /
``RecoveryVerifier`` run over live logs completely unchanged.

Physical slots are 8 KiB even though a block holds 2000 *accounting* bytes:
accounting sizes are the paper's (a transaction record "contains roughly
8 bytes"), while the wire encoding carries full headers — a block filled
with 250 eight-byte transaction records encodes to ~7.3 KB.  The slot
header carries a CRC32 over the payload, so torn or partial writes are
detected on read-back exactly like the simulator's checksum-failed blocks.

Durability model: log writes are ``os.pwrite`` + ``fsync`` batched on a
bounded thread pool of :data:`IO_WORKERS` threads — one fsync covers every
block queued behind it (group fsync coalescing).  fsync is always on.
Every drive counts into the server's one metrics registry
(``log.bytes_written`` — encoded slot bytes, not the generations'
accounting bytes — ``log.fsyncs`` and the ``log.write_latency``
histogram), from the event-loop thread only; blocks written are the
generations' own ``log.gen{g}.blocks_written``.
Database installs are a synchronous ``pwrite`` of a fixed 32-byte object
slot with *no* fsync on the hot path: a page-cache write survives process
death (SIGKILL), which is the crash model the recovery acceptance test
exercises; ``flush()``/``close()`` fsync for power-loss hygiene.  The
correctness ordering is inherited from the flush scheduler: an update's
log record is only garbage-collected *after* ``StableDatabase.install``
returns, i.e. after the pwrite.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.constants import BLOCK_PAYLOAD_BYTES
from repro.db.database import StableDatabase
from repro.db.objects import ObjectVersion
from repro.disk.block import BlockAddress, BlockImage
from repro.errors import ConfigurationError, RecordIntegrityError
from repro.obs.metrics import MetricsRegistry
from repro.records.encoding import RecordCodec

# ----------------------------------------------------------------------
# On-disk log slot format
# ----------------------------------------------------------------------

#: Physical bytes per log block slot.  Must exceed the worst-case wire
#: encoding of a 2000-accounting-byte block (250 tx records x 29 wire
#: bytes = 7250 B) plus the slot header.
SLOT_BYTES = 8192

#: magic, version, shard, generation, slot, record_count, payload_len,
#: crc32, write_lsn
_SLOT_HEADER = struct.Struct("<IHHIIIIIQ")
SLOT_HEADER_BYTES = 64  # header struct padded for alignment/evolution
SLOT_PAYLOAD_MAX = SLOT_BYTES - SLOT_HEADER_BYTES

_SLOT_MAGIC = 0x454C4F47  # "ELOG"
_FORMAT_VERSION = 1
_NO_LSN = 0xFFFF_FFFF_FFFF_FFFF

_codec = RecordCodec()

#: Worker threads shared by all of a server's log drives.
IO_WORKERS = 4


def encode_slot(image: BlockImage, *, shard: int, generation: int) -> bytes:
    """Serialise a sealed block image into one on-disk slot (unpadded)."""
    payload = _codec.encode_block(image.records)
    if len(payload) > SLOT_PAYLOAD_MAX:
        raise RecordIntegrityError(
            f"block {image.address} encodes to {len(payload)} B, exceeding "
            f"the {SLOT_PAYLOAD_MAX} B slot payload"
        )
    write_lsn = _NO_LSN if image.write_lsn is None else image.write_lsn
    header = _SLOT_HEADER.pack(
        _SLOT_MAGIC,
        _FORMAT_VERSION,
        shard,
        generation,
        image.address.slot,
        len(image.records),
        len(payload),
        zlib.crc32(payload),
        write_lsn,
    )
    return header + b"\x00" * (SLOT_HEADER_BYTES - _SLOT_HEADER.size) + payload


def decode_slot(
    buffer: bytes, *, generation: int, slot: int
) -> Optional[BlockImage]:
    """Parse one slot back into a :class:`BlockImage`.

    Returns ``None`` for never-written slots (no magic).  Corrupt slots —
    bad CRC, truncated payload, undecodable records — come back as
    *unreadable* images, which ``LogScan`` quarantines exactly like a
    latent sector error in the simulator.
    """
    if len(buffer) < _SLOT_HEADER.size:
        return None
    (
        magic,
        version,
        _shard,
        gen_field,
        slot_field,
        record_count,
        payload_len,
        crc,
        write_lsn,
    ) = _SLOT_HEADER.unpack_from(buffer, 0)
    if magic != _SLOT_MAGIC:
        return None
    image = BlockImage(BlockAddress(generation, slot), BLOCK_PAYLOAD_BYTES)
    if (
        version != _FORMAT_VERSION
        or gen_field != generation
        or slot_field != slot
        or payload_len > len(buffer) - SLOT_HEADER_BYTES
    ):
        image.unreadable = True
        return image
    payload = buffer[SLOT_HEADER_BYTES : SLOT_HEADER_BYTES + payload_len]
    if zlib.crc32(payload) != crc:
        image.unreadable = True
        return image
    try:
        records = _codec.decode_block(payload)
    except (RecordIntegrityError, struct.error):
        image.unreadable = True
        return image
    if len(records) != record_count:
        image.unreadable = True
        return image
    image.records = records
    image.payload_used = min(sum(r.size for r in records), BLOCK_PAYLOAD_BYTES)
    image.write_lsn = None if write_lsn == _NO_LSN else write_lsn
    return image


def read_drive_file(path: Path, *, generation: int) -> List[BlockImage]:
    """Read every written slot of one generation's log file."""
    images: List[BlockImage] = []
    data = Path(path).read_bytes()
    for slot in range(len(data) // SLOT_BYTES):
        chunk = data[slot * SLOT_BYTES : (slot + 1) * SLOT_BYTES]
        image = decode_slot(chunk, generation=generation, slot=slot)
        if image is not None:
            images.append(image)
    return images


def read_log_directory(directory) -> List[BlockImage]:
    """Read every ``*.log`` file under a live server's log directory.

    File names encode the generation index (``gen{g}.log``, or
    ``shard{s}-gen{g}.log`` for sharded servers); recovery itself dedupes
    records by LSN so the per-shard generation indices may collide safely.
    """
    directory = Path(directory)
    images: List[BlockImage] = []
    for path in sorted(directory.glob("*.log")):
        stem = path.stem
        try:
            generation = int(stem.rsplit("gen", 1)[1])
        except (IndexError, ValueError):
            raise ConfigurationError(
                f"cannot infer generation index from log file name {path.name!r}"
            )
        images.extend(read_drive_file(path, generation=generation))
    return images


# ----------------------------------------------------------------------
# The file-backed log drive
# ----------------------------------------------------------------------


class FileBackedDrive:
    """One generation's circular block array as a preallocated file.

    Conforms to the store contract :class:`repro.core.generation.Generation`
    expects: ``write_block(image, on_durable)`` persists the sealed image
    and invokes ``on_durable`` (on the loop thread) once it is genuinely on
    disk.  Writes are queued and drained by at most one worker task at a
    time; every block queued while a drain is in progress shares the next
    ``fsync`` — group-commit fsync coalescing for free.
    """

    def __init__(
        self,
        scheduler,
        path,
        capacity_blocks: int,
        *,
        executor: ThreadPoolExecutor,
        metrics: MetricsRegistry,
        shard: int = 0,
        generation: int = 0,
    ):
        if capacity_blocks < 1:
            raise ConfigurationError(
                f"drive needs >=1 block, got {capacity_blocks}"
            )
        self.scheduler = scheduler
        self.path = Path(path)
        self.capacity_blocks = capacity_blocks
        self.shard = shard
        self.generation = generation
        self._executor = executor
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            self.path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644
        )
        os.ftruncate(self._fd, capacity_blocks * SLOT_BYTES)
        self._closed = False

        self._lock = threading.Lock()
        self._pending: deque = deque()  # (offset, payload, on_durable, t0)
        self._pump_scheduled = False

        # Shared by every drive of the registry; touched on the loop thread.
        self._m_bytes = metrics.counter("log.bytes_written")
        self._m_fsyncs = metrics.counter("log.fsyncs")
        self._m_latency = metrics.histogram("log.write_latency")

    def write_block(self, image: BlockImage, on_durable: Callable[[], None]) -> None:
        """Persist a sealed block image; fire ``on_durable`` once on disk."""
        if self._closed:
            raise ConfigurationError(f"drive {self.path.name} is closed")
        slot = image.address.slot
        if not 0 <= slot < self.capacity_blocks:
            raise ConfigurationError(
                f"slot {slot} outside drive capacity {self.capacity_blocks}"
            )
        payload = encode_slot(image, shard=self.shard, generation=self.generation)
        self._m_bytes.inc(len(payload))
        entry = (slot * SLOT_BYTES, payload, on_durable, self.scheduler.now)
        with self._lock:
            self._pending.append(entry)
            if not self._pump_scheduled:
                self._pump_scheduled = True
                self._executor.submit(self._pump)

    @property
    def writes_pending(self) -> int:
        with self._lock:
            return len(self._pending) + (1 if self._pump_scheduled else 0)

    def _pump(self) -> None:
        """Worker-thread drain loop: pwrite the batch, one fsync, complete."""
        while True:
            with self._lock:
                if not self._pending:
                    self._pump_scheduled = False
                    return
                batch = list(self._pending)
                self._pending.clear()
            for offset, payload, _cb, _t0 in batch:
                os.pwrite(self._fd, payload, offset)
            os.fsync(self._fd)
            self.scheduler.post(self._complete, batch)

    def _complete(self, batch) -> None:
        """Loop thread: count the batch's fsync, observe latency, then run
        the durability callbacks."""
        self._m_fsyncs.inc()
        now = self.scheduler.now
        for _offset, _payload, on_durable, t0 in batch:
            self._m_latency.observe(now - t0)
            on_durable()

    def close(self) -> None:
        """Close the file descriptor (pending writes must be drained first)."""
        if not self._closed:
            self._closed = True
            os.fsync(self._fd)
            os.close(self._fd)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FileBackedDrive {self.path.name} blocks={self.capacity_blocks}>"


class LiveLogStorage:
    """Attach file-backed drives to every generation of a live manager.

    One ``FileBackedDrive`` per generation, named ``gen{g}.log`` (or
    ``shard{s}-gen{g}.log`` behind a :class:`ShardedLogManager`), all
    sharing one bounded thread pool and counting into ``metrics``.
    Detach-free: drives live as long as the storage object.
    """

    def __init__(self, directory, scheduler, metrics: MetricsRegistry):
        self.directory = Path(directory)
        self.scheduler = scheduler
        self.metrics = metrics
        self.executor = ThreadPoolExecutor(
            max_workers=IO_WORKERS, thread_name_prefix="log-io"
        )
        self.drives: List[FileBackedDrive] = []

    def attach(self, shards: Sequence) -> None:
        """Install drives on every generation of each shard's manager.

        A lone manager writes ``gen{g}.log``; with several, shard *s*
        writes ``shard{s}-gen{g}.log``.
        """
        for index, manager in enumerate(shards):
            prefix = f"shard{index}-" if len(shards) > 1 else ""
            for generation in manager.generations:
                drive = FileBackedDrive(
                    self.scheduler,
                    self.directory / f"{prefix}gen{generation.index}.log",
                    generation.array.capacity,
                    executor=self.executor,
                    metrics=self.metrics,
                    shard=index,
                    generation=generation.index,
                )
                generation.store = drive
                self.drives.append(drive)

    @property
    def writes_pending(self) -> int:
        return sum(drive.writes_pending for drive in self.drives)

    def close(self) -> None:
        self.executor.shutdown(wait=True)
        for drive in self.drives:
            drive.close()


# ----------------------------------------------------------------------
# The file-backed stable database
# ----------------------------------------------------------------------

#: value i64, timestamp f64, lsn u64, crc32 of the preceding 24 bytes.
_OBJECT_SLOT = struct.Struct("<qdQI")
OBJECT_SLOT_BYTES = 32


class FileBackedDatabase(StableDatabase):
    """A :class:`StableDatabase` whose installs also persist to a file.

    Each object owns a fixed 32-byte slot at ``oid * 32`` (the file is
    sparse, so a 10^7-object database costs only the slots actually
    flushed).  Installs pwrite synchronously *without* fsync: the flush
    scheduler garbage-collects an update's log record only after
    ``install`` returns, and a completed pwrite survives SIGKILL — fsync
    would defend against power loss only, and runs in ``flush``/``close``.
    """

    def __init__(self, path, num_objects: int):
        super().__init__(num_objects)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
        self._closed = False
        self.installs_persisted = 0

    def install(self, oid: int, version: ObjectVersion) -> bool:
        took_effect = super().install(oid, version)
        if took_effect and not self._closed:
            body = _OBJECT_SLOT.pack(version.value, version.timestamp, version.lsn, 0)
            slot = body[:-4] + struct.pack("<I", zlib.crc32(body[:-4]))
            os.pwrite(self._fd, slot, oid * OBJECT_SLOT_BYTES)
            self.installs_persisted += 1
        return took_effect

    def flush(self) -> None:
        """fsync the database file (power-loss hygiene; not on the hot path)."""
        if not self._closed:
            os.fsync(self._fd)

    def close(self) -> None:
        if not self._closed:
            os.fsync(self._fd)
            os.close(self._fd)
            self._closed = True

    @staticmethod
    def load_snapshot(path) -> Dict[int, ObjectVersion]:
        """Read a database file back into an oid -> version snapshot.

        Used by crash verification: the returned dict is exactly what
        ``Simulation.capture_stable_database`` yields in the simulator.
        Slots whose CRC fails (torn by the crash) are treated as never
        flushed — safe, because the log record for an unflushed update is
        by construction still in the log.
        """
        snapshot: Dict[int, ObjectVersion] = {}
        data = Path(path).read_bytes()
        # Round up: the file ends after the last written slot's 28 used
        # bytes, not at a 32-byte slot boundary.
        slots = (len(data) + OBJECT_SLOT_BYTES - 1) // OBJECT_SLOT_BYTES
        for oid in range(slots):
            chunk = data[oid * OBJECT_SLOT_BYTES : oid * OBJECT_SLOT_BYTES + _OBJECT_SLOT.size]
            if len(chunk) < _OBJECT_SLOT.size or chunk == b"\x00" * _OBJECT_SLOT.size:
                continue
            value, timestamp, lsn, crc = _OBJECT_SLOT.unpack(chunk)
            if zlib.crc32(chunk[:-4]) != crc:
                continue
            snapshot[oid] = ObjectVersion(value=value, timestamp=timestamp, lsn=lsn)
        return snapshot
