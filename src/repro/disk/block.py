"""Block addresses and block images.

The paper manages the log at block granularity: "the head and tail pointers
for a generation indicate only block locations" and a cell "indicates merely
the block to which its record belongs".  :class:`BlockAddress` is that
coarse pointer; :class:`BlockImage` is the simulated content of one on-disk
block (the list of records written into it plus payload accounting).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.errors import RecordIntegrityError
from repro.records.base import LogRecord


class BlockAddress(NamedTuple):
    """Coarse location of a record: which generation, which block slot.

    ``slot`` is the physical index within the generation's circular array,
    *not* a logical sequence number — records "conceptually move from tail
    to head but physically they remain in the same place on disk".
    """

    generation: int
    slot: int


class BlockImage:
    """The simulated contents of one written (or reserved) log block."""

    __slots__ = (
        "address",
        "payload_capacity",
        "payload_used",
        "records",
        "write_lsn",
        "checksum",
        "unreadable",
    )

    def __init__(self, address: BlockAddress, payload_capacity: int):
        self.address = address
        self.payload_capacity = payload_capacity
        self.payload_used = 0
        self.records: list[LogRecord] = []
        #: LSN of the first record when the block was sealed; None until then.
        self.write_lsn: int | None = None
        #: CRC32 over the wire encoding, recorded at write time when fault
        #: injection is enabled; None means "no checksum" (trusted media).
        self.checksum: int | None = None
        #: Set when a latent sector error has destroyed this copy; the log
        #: scan skips unreadable blocks.
        self.unreadable = False

    @property
    def free_bytes(self) -> int:
        """Payload bytes still available in this block."""
        return self.payload_capacity - self.payload_used

    # ``fits`` and ``add`` run once per appended record, so both compute
    # the free space inline instead of reading the property.
    def fits(self, record: LogRecord) -> bool:
        """Whether ``record`` fits in the remaining payload space."""
        return record.size <= self.payload_capacity - self.payload_used

    def add(self, record: LogRecord) -> None:
        """Append a record; raises if it does not fit (records never split)."""
        if record.size > self.payload_capacity - self.payload_used:
            raise RecordIntegrityError(
                f"record of {record.size} B does not fit in block "
                f"{self.address} with {self.free_bytes} B free"
            )
        self.records.append(record)
        self.payload_used += record.size

    def seal(self) -> None:
        """Mark the image as written; remembers the first record's LSN."""
        if self.records:
            self.write_lsn = self.records[0].lsn

    def record_checksum(self) -> None:
        """Stamp the CRC of the full record set (fault-injected runs only)."""
        from repro.records.encoding import block_checksum

        self.checksum = block_checksum(self.records)

    def checksum_ok(self) -> bool:
        """Verify content against the recorded checksum.

        Blocks written without a checksum (trusted media) always pass.
        """
        if self.checksum is None:
            return True
        from repro.records.encoding import block_checksum

        return block_checksum(self.records) == self.checksum

    def torn_copy(self, keep: int) -> "BlockImage":
        """The image a torn write leaves behind: the first ``keep`` records.

        The copy carries the checksum of the *full* record set, so unless
        ``keep == len(records)`` the tear is detectable — exactly how a
        real controller catches a partial block write.
        """
        copy = BlockImage(self.address, self.payload_capacity)
        copy.records = list(self.records[:keep])
        copy.payload_used = sum(r.size for r in copy.records)
        copy.write_lsn = copy.records[0].lsn if copy.records else None
        copy.checksum = self.checksum
        return copy

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BlockImage {self.address} records={len(self.records)} "
            f"used={self.payload_used}/{self.payload_capacity}>"
        )
