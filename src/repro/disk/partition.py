"""Range partitioning of the object space over the flush drives.

"The objects are range partitioned evenly over these drives.  That is, for
NUM_OBJECTS objects and D drives, the first NUM_OBJECTS/D objects reside on
drive 0, and so on. ... When calculating the difference between two oids, we
assume that the range of integers assigned to their disk drive wraps
around."
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class RangePartitioner:
    """Maps oids to drives and measures circular intra-drive distances.

    ``base`` shifts the partitioned span to ``[base, base + num_objects)``:
    a sharded log hands each shard's flush scheduler a partitioner over the
    shard's own oid sub-range, so all of the shard's drives share its load
    instead of only the drives whose global range happens to overlap it.
    """

    __slots__ = ("num_objects", "num_drives", "range_size", "base", "_ranges")

    def __init__(self, num_objects: int, num_drives: int, base: int = 0):
        if num_drives < 1:
            raise ConfigurationError(f"need >=1 drive, got {num_drives}")
        if num_objects < num_drives:
            raise ConfigurationError(
                f"need at least one object per drive ({num_objects} objects, "
                f"{num_drives} drives)"
            )
        if base < 0:
            raise ConfigurationError(f"base must be >= 0, got {base}")
        self.num_objects = num_objects
        self.num_drives = num_drives
        self.base = base
        # The paper ignores the non-divisible case "for simplicity"; we give
        # the last drive the remainder instead of ignoring it.
        self.range_size = num_objects // num_drives
        # Per-drive ``(lo, hi)`` computed once: the flush path asks for a
        # drive's range on every seek-distance measurement.
        self._ranges = tuple(
            (
                base + drive * self.range_size,
                base + (drive + 1) * self.range_size
                if drive < num_drives - 1
                else base + num_objects,
            )
            for drive in range(num_drives)
        )

    def drive_of(self, oid: int) -> int:
        """Drive index holding ``oid``."""
        if not self.base <= oid < self.base + self.num_objects:
            raise ConfigurationError(
                f"oid {oid} outside [{self.base}, {self.base + self.num_objects})"
            )
        return min((oid - self.base) // self.range_size, self.num_drives - 1)

    def range_of(self, drive: int) -> tuple[int, int]:
        """Half-open oid interval ``[lo, hi)`` stored on ``drive``."""
        if not 0 <= drive < self.num_drives:
            raise ConfigurationError(f"drive {drive} out of range")
        return self._ranges[drive]

    def distance(self, oid_a: int, oid_b: int) -> int:
        """Circular distance between two oids on the same drive.

        The drive's oid range wraps around, so the distance is the shorter
        way around the circle.
        """
        drive = self.drive_of(oid_a)
        if self.drive_of(oid_b) != drive:
            raise ConfigurationError(
                f"oids {oid_a} and {oid_b} live on different drives"
            )
        lo, hi = self._ranges[drive]
        span = hi - lo
        diff = abs(oid_a - oid_b) % span
        return min(diff, span - diff)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RangePartitioner objects={self.num_objects} "
            f"drives={self.num_drives} range={self.range_size} base={self.base}>"
        )
