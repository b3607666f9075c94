"""Block buffers and the per-generation buffer pool.

"Several buffers are necessary because a disk write generally requires a
significant amount of time, such as 10 ms, during which many other log
records may arrive.  While one buffer is being written to disk, new records
can be added to a different buffer without risk of interference."  The paper
provides four buffers per generation.

The pool is accounted rather than blocking: bursts that would need a fifth
buffer (e.g. a long forwarding episode) are allowed but counted as
*overdrafts*, so experiments can verify the paper's choice of four is
sufficient instead of deadlocking the simulation.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.disk.block import BlockImage
from repro.errors import SimulationError


class BufferState(enum.Enum):
    FREE = "free"
    FILLING = "filling"
    WRITING = "writing"


class BlockBuffer:
    """One in-memory block buffer cycling through free → filling → writing."""

    __slots__ = ("pool", "state", "image")

    def __init__(self, pool: "BufferPool"):
        self.pool = pool
        self.state = BufferState.FREE
        self.image: Optional[BlockImage] = None

    def attach(self, image: BlockImage) -> None:
        """Begin filling this buffer with content for ``image``."""
        if self.state is not BufferState.FREE:
            raise SimulationError(f"cannot attach to a {self.state.value} buffer")
        self.state = BufferState.FILLING
        self.image = image

    def start_write(self) -> BlockImage:
        """Seal the image and transition to WRITING; returns the image."""
        if self.state is not BufferState.FILLING or self.image is None:
            raise SimulationError("only a filling buffer can start writing")
        self.state = BufferState.WRITING
        image = self.image
        image.seal()
        return image

    def finish_write(self) -> None:
        """Write completed: return the buffer to the pool."""
        if self.state is not BufferState.WRITING:
            raise SimulationError("buffer is not writing")
        self.state = BufferState.FREE
        self.image = None
        self.pool.release(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BlockBuffer {self.state.value}>"


class BufferPool:
    """Accounted pool of :class:`BlockBuffer` objects for one generation."""

    __slots__ = ("capacity", "_free", "in_use", "peak_in_use", "overdrafts")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise SimulationError(f"buffer pool needs >=1 buffer, got {capacity}")
        self.capacity = capacity
        self._free: list[BlockBuffer] = [BlockBuffer(self) for _ in range(capacity)]
        self.in_use = 0
        self.peak_in_use = 0
        self.overdrafts = 0

    def acquire(self) -> BlockBuffer:
        """Take a buffer; never blocks, but counts overdrafts past capacity."""
        self.in_use += 1
        if self.in_use > self.peak_in_use:
            self.peak_in_use = self.in_use
        if self._free:
            return self._free.pop()
        self.overdrafts += 1
        return BlockBuffer(self)

    def release(self, buffer: BlockBuffer) -> None:
        """Return a buffer to the pool."""
        if self.in_use <= 0:
            raise SimulationError("release without matching acquire")
        self.in_use -= 1
        if len(self._free) < self.capacity:
            self._free.append(buffer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BufferPool capacity={self.capacity} in_use={self.in_use} "
            f"peak={self.peak_in_use} overdrafts={self.overdrafts}>"
        )
