"""One generation: a circular queue of log blocks plus its RAM structures.

A generation owns

* the :class:`~repro.disk.circular.CircularBlockArray` doing head/tail/gap
  accounting over its disk blocks,
* the *logical* block contents (what the LM knows is destined for each
  slot — set when a buffer is sealed) and the *durable* contents (what is
  actually on disk — set when the 15 ms write completes; this is what crash
  recovery may read),
* the circular doubly-linked :class:`~repro.core.cells.CellList` of cells
  for its non-garbage records, and
* a :class:`~repro.core.buffers.BufferPool` feeding two tail channels:

  - the **fresh** channel (``current``) receives newly written log records;
  - the **migration** channel (``migration``) receives records arriving
    from a head — forwarded from the previous generation or recirculated
    within this one.  The paper fills such a buffer "as full as possible"
    by grouping records "from the first several blocks at the head"; here
    the buffer simply stays open until full, and the log manager's
    pre-reserve hook force-seals it if any source block is about to be
    overwritten, which preserves the same durability guarantee.

Policy (what to do with records at the head) lives in the log managers;
this class is purely mechanical.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.buffers import BlockBuffer, BufferPool
from repro.core.cells import CellList
from repro.disk.block import BlockAddress, BlockImage
from repro.disk.circular import CircularBlockArray
from repro.errors import SimulationError
from repro.faults.injector import NULL_FAULTS
from repro.faults.plan import FaultKind
from repro.obs.events import NULL_TRACE, EventStream
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.records.base import LogRecord
from repro.sim.engine import Simulator

#: Callback type fired when a block's disk write completes.
BlockDurableCallback = Callable[["Generation", BlockImage], None]
#: Callback type fired just before a tail slot is reserved.
PreReserveCallback = Callable[["Generation", int], None]
#: Callback type fired on a block's *first* failed write attempt.
WriteUnresolvedCallback = Callable[["Generation", BlockImage], None]
#: Callback type fired when a block's content is lost: its retry budget ran
#: out (cause ``"write_failed"``) or it suffered a latent sector error
#: (cause ``"latent"``).
BlockLostCallback = Callable[["Generation", BlockImage, str], None]


class Generation:
    """Mechanical state and operations for one log generation."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        capacity_blocks: int,
        *,
        payload_bytes: int,
        buffer_count: int,
        write_seconds: float,
        on_block_durable: BlockDurableCallback,
        trace: EventStream = NULL_TRACE,
        metrics: MetricsRegistry = NULL_METRICS,
        faults=NULL_FAULTS,
    ):
        self.sim = sim
        self.index = index
        self.payload_bytes = payload_bytes
        self.write_seconds = write_seconds
        self.array = CircularBlockArray(capacity_blocks)
        self.cells = CellList(index)
        self.pool = BufferPool(buffer_count)
        self.trace = trace
        metrics.view(
            f"pool.gen{index}.in_use",
            lambda: self.pool.in_use,
            lambda: self.pool.peak_in_use,
        )
        metrics.view(f"log.gen{index}.blocks_written", lambda: self.blocks_written)
        metrics.view(f"log.gen{index}.bytes_written", lambda: self.bytes_written)
        self._m_batch_records = metrics.histogram("log.block_records")
        self._on_block_durable = on_block_durable
        #: Hook the log manager installs to protect pending migration
        #: buffers whose source slots are about to be overwritten.
        self.pre_reserve: Optional[PreReserveCallback] = None
        self.faults = faults
        #: Hook fired on a block's *first* failed attempt, before any retry
        #: — the manager stabilises at-risk records behind it.
        self.on_write_unresolved: Optional[WriteUnresolvedCallback] = None
        #: Hook fired when the retry budget is exhausted (hard failure) or
        #: a durable block decays (latent sector error).
        self.on_block_lost: Optional[BlockLostCallback] = None
        #: Optional physical block store (live mode).  When set, sealed
        #: blocks are handed to ``store.write_block`` — which persists the
        #: image and invokes the completion when genuinely durable — instead
        #: of modelling the write with a simulated delay.  Everything else
        #: (accounting, durability bookkeeping, group commit) is shared
        #: byte-for-byte between sim and live modes.
        self.store = None

        #: Sealed content per slot (the LM's view of the block).
        self.logical: Dict[int, BlockImage] = {}
        #: Completed-write content per slot (the crash-recovery view).
        self.durable: Dict[int, BlockImage] = {}
        #: Issued-but-not-yet-durable content per slot (crash capture tears
        #: these; the retry loop resolves them).
        self.in_flight: Dict[int, BlockImage] = {}

        self.current: Optional[BlockBuffer] = None
        self.migration: Optional[BlockBuffer] = None

        self.blocks_written = 0
        self.bytes_written = 0
        self.records_appended = 0
        self.writes_in_flight = 0
        self.peak_used = 0
        self.write_faults = 0
        self.write_retries = 0
        self.failed_writes = 0
        self.latent_faults = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.array.capacity

    @property
    def free_blocks(self) -> int:
        return self.array.free

    def head_image(self) -> Optional[BlockImage]:
        """Sealed image at the head slot, or ``None`` if it can't be processed.

        ``None`` means the queue is empty or the head slot's content is still
        being assembled in a buffer (the head caught up with a reserved slot,
        which only happens in pathologically small generations).
        """
        if self.array.empty:
            return None
        return self.logical.get(self.array.head)

    def head_is_open_buffer(self) -> Optional[BlockBuffer]:
        """The open buffer occupying the head slot, if any.

        Lets the manager force-seal it so the head becomes processable when
        a tiny generation wraps onto its own filling buffer.
        """
        if self.array.empty:
            return None
        head = self.array.head
        for buffer in (self.current, self.migration):
            if (
                buffer is not None
                and buffer.image is not None
                and buffer.image.address.slot == head
            ):
                return buffer
        return None

    # ------------------------------------------------------------------
    # Tail-side operations — fresh channel
    # ------------------------------------------------------------------
    def append(self, record: LogRecord) -> tuple[BlockAddress, bool]:
        """Add a fresh record to the tail, sealing/rotating buffers as needed.

        Returns ``(address, reserved)`` where ``reserved`` reports whether a
        new tail slot was taken — the caller must re-establish the head/tail
        gap afterwards ("after addition of new records to the tail of a
        generation, the LM advances the head").
        """
        reserved = False
        if self.current is None:
            self.current = self._start_buffer()
            reserved = True
        assert self.current.image is not None
        if not self.current.image.fits(record):
            self.seal_current()
            self.current = self._start_buffer()
            reserved = True
        image = self.current.image
        assert image is not None
        image.add(record)
        self.records_appended += 1
        return image.address, reserved

    def seal_current(self) -> None:
        """Seal the fresh-channel buffer and issue its disk write."""
        buffer = self.current
        if buffer is None:
            raise SimulationError(f"generation {self.index} has no current buffer")
        self.current = None
        self._issue_write(buffer)

    # ------------------------------------------------------------------
    # Tail-side operations — migration channel
    # ------------------------------------------------------------------
    def append_migrated(self, record: LogRecord) -> tuple[BlockAddress, bool, bool]:
        """Add a forwarded/recirculated record to the migration buffer.

        Returns ``(address, reserved, sealed_full)``; ``sealed_full`` tells
        the caller a previous migration block just filled up and was written.
        """
        reserved = False
        sealed_full = False
        if self.migration is None:
            self.migration = self._start_buffer()
            reserved = True
        assert self.migration.image is not None
        if not self.migration.image.fits(record):
            self.seal_migration()
            sealed_full = True
            self.migration = self._start_buffer()
            reserved = True
        image = self.migration.image
        assert image is not None
        image.add(record)
        self.records_appended += 1
        return image.address, reserved, sealed_full

    def seal_migration(self) -> bool:
        """Seal the migration buffer if it exists; returns whether it did."""
        buffer = self.migration
        if buffer is None:
            return False
        self.migration = None
        self._issue_write(buffer)
        return True

    def seal_open_buffers(self) -> int:
        """Seal both channels (end-of-run drain); returns buffers sealed."""
        sealed = 0
        if self.migration is not None:
            self.seal_migration()
            sealed += 1
        if self.current is not None:
            self.seal_current()
            sealed += 1
        return sealed

    # ------------------------------------------------------------------
    # Head-side operations
    # ------------------------------------------------------------------
    def free_head(self) -> BlockImage:
        """Advance the head over one sealed block; returns its image."""
        image = self.head_image()
        if image is None:
            raise SimulationError(
                f"generation {self.index}: head block is not processable"
            )
        slot = self.array.free_head()
        self.logical.pop(slot, None)
        return image

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _start_buffer(self) -> BlockBuffer:
        """Reserve a tail slot and attach a buffer to it.

        The LM "knows the position of the disk block to which it will
        eventually be written" as soon as the buffer starts, so the slot is
        reserved here and its address is immediately valid for cells.
        """
        if self.pre_reserve is not None:
            self.pre_reserve(self, self.array.tail)
        slot = self.array.reserve_tail()
        if self.array.used > self.peak_used:
            self.peak_used = self.array.used
        buffer = self.pool.acquire()
        buffer.attach(BlockImage(BlockAddress(self.index, slot), self.payload_bytes))
        return buffer

    def _issue_write(self, buffer: BlockBuffer) -> None:
        image = buffer.start_write()
        slot = image.address.slot
        if self.faults.checksum_blocks:
            image.record_checksum()
        self.logical[slot] = image
        self.in_flight[slot] = image
        self.blocks_written += 1
        self.bytes_written += image.payload_used
        self.writes_in_flight += 1
        self._m_batch_records.observe(len(image.records))
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "log",
                "block_write",
                {
                    "generation": self.index,
                    "slot": slot,
                    "records": len(image.records),
                    "bytes": image.payload_used,
                },
            )
        if self.store is not None:
            self.store.write_block(
                image, lambda: self._write_landed(buffer, image, slot, 0)
            )
        else:
            self.sim.after(
                self.write_seconds, self._write_landed, buffer, image, slot, 0
            )

    def _write_landed(
        self, buffer: BlockBuffer, image: BlockImage, slot: int, attempt: int
    ) -> None:
        """One write attempt finished: success, retry, or hard failure.

        Transient faults fail the attempt outright; torn faults persist a
        prefix that read-back checksum verification rejects — both retry
        in place after the plan's backoff until the budget runs out.
        """
        faults = self.faults
        if faults.injects_log_writes:
            kind = faults.log_write_outcome(self.index, slot)
            if kind is not None:
                self._write_faulted(buffer, image, slot, attempt, kind)
                return
        self.writes_in_flight -= 1
        self.in_flight.pop(slot, None)
        self.durable[slot] = image
        buffer.finish_write()
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "log",
                "block_durable",
                {"generation": self.index, "slot": slot},
            )
        if faults.injects_latent:
            delay = faults.latent_delay(self.index, slot)
            if delay is not None:
                self.sim.after(delay, self._latent_fire, slot, image)
        self._on_block_durable(self, image)

    def _write_faulted(
        self, buffer: BlockBuffer, image: BlockImage, slot: int, attempt: int, kind: FaultKind
    ) -> None:
        self.write_faults += 1
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "fault",
                "write_fault",
                {
                    "generation": self.index,
                    "slot": slot,
                    "kind": kind.value,
                    "attempt": attempt,
                },
            )
        if attempt == 0 and self.on_write_unresolved is not None:
            # First failure of this block: give the manager a chance to
            # stabilise records whose only other durable copy could be
            # overwritten while the retries run.
            self.on_write_unresolved(self, image)
        plan = self.faults.plan
        if attempt < plan.max_retries:
            self.write_retries += 1
            self.sim.after(
                plan.retry_backoff_seconds + self.write_seconds,
                self._write_landed,
                buffer,
                image,
                slot,
                attempt + 1,
            )
            return
        # Retry budget exhausted: the block never becomes durable.  The
        # manager relocates its live records and considers remapping.
        self.writes_in_flight -= 1
        self.in_flight.pop(slot, None)
        self.failed_writes += 1
        buffer.finish_write()
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "fault",
                "write_failed",
                {"generation": self.index, "slot": slot, "attempts": attempt + 1},
            )
        if self.on_block_lost is not None:
            self.on_block_lost(self, image, "write_failed")

    def _latent_fire(self, slot: int, image: BlockImage) -> None:
        """A previously durable block decays (latent sector error).

        Scrub model: the device reports the imminent failure while the
        content is still readable, the manager heals (relocates live and
        committed data), and only then is the copy marked unreadable.
        Stale schedules — the slot was overwritten since — are ignored.
        """
        if self.durable.get(slot) is not image:
            return
        self.latent_faults += 1
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "fault",
                "latent",
                {"generation": self.index, "slot": slot},
            )
        if self.on_block_lost is not None:
            self.on_block_lost(self, image, "latent")
        image.unreadable = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Generation {self.index} capacity={self.capacity} "
            f"used={self.array.used} cells={len(self.cells)} "
            f"writes={self.blocks_written}>"
        )
