"""A single database disk drive servicing flush writes.

"The user specifies some number of disk drives and the time required to
write a block to any of these drives.  We assume that there can be at most
one request at a time for any particular drive."

The drive is deliberately simple: a fixed per-write service time (the
configured transfer time already folds in seek/rotation allowances — the
paper's 25 ms is "conservative") plus position tracking so the scheduler and
stats can reason about locality.  Under fault injection a write attempt can
fail transiently; the drive retries in place up to the plan's budget and,
if the budget is exhausted, surfaces a typed :class:`DiskFault` to the
caller instead of silently succeeding.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.disk.stats import DriveStats
from repro.errors import SimulationError
from repro.faults.injector import NULL_FAULTS
from repro.faults.plan import DiskFault, FaultKind
from repro.sim.engine import Simulator


class DiskDrive:
    """One drive with single-request service and a current oid position."""

    __slots__ = ("sim", "index", "write_seconds", "stats", "busy", "position", "faults")

    def __init__(self, sim: Simulator, index: int, write_seconds: float, *, faults=NULL_FAULTS):
        if write_seconds <= 0:
            raise SimulationError(f"write time must be positive, got {write_seconds}")
        self.sim = sim
        self.index = index
        self.write_seconds = write_seconds
        self.stats = DriveStats()
        #: Whether a write is currently in service (set only by the drive).
        self.busy = False
        #: Last oid written, used as the arm position for locality decisions.
        self.position: Optional[int] = None
        self.faults = faults

    def write(
        self,
        oid: int,
        on_complete: Callable[..., None],
        seek_distance: int | None = None,
        on_fault: Callable[..., None] | None = None,
        *args: Any,
    ) -> None:
        """Service one block write for ``oid``; fire ``on_complete(*args)`` when done.

        ``seek_distance`` is the circular oid distance from the previous
        position, provided by the scheduler (which knows the partition
        geometry); it feeds the locality statistics only.  ``args`` ride
        along to the callbacks, so a caller can pass a bound method and
        its arguments instead of building a closure per write.

        Under fault injection, a transiently failing attempt is retried in
        place after the plan's backoff; when the retry budget runs out the
        drive goes idle and reports ``on_fault(fault, *args)`` with a
        :class:`DiskFault` (required when flush faults are enabled).
        """
        if self.busy:
            raise SimulationError(f"drive {self.index} is busy")
        self.busy = True
        self.sim.after(
            self.write_seconds, self._service, oid, on_complete, seek_distance, on_fault, 0, *args
        )

    def _service(
        self,
        oid: int,
        on_complete: Callable[..., None],
        seek_distance: int | None,
        on_fault: Callable[..., None] | None,
        attempt: int,
        *args: Any,
    ) -> None:
        faults = self.faults
        if faults.injects_flush and faults.flush_write_fails(self.index):
            self.stats.record_fault(self.write_seconds)
            plan = faults.plan
            if attempt < plan.max_retries:
                self.sim.after(
                    plan.retry_backoff_seconds + self.write_seconds,
                    self._service,
                    oid,
                    on_complete,
                    seek_distance,
                    on_fault,
                    attempt + 1,
                    *args,
                )
                return
            self.busy = False
            if on_fault is None:
                raise SimulationError(
                    f"drive {self.index} write failed with no fault handler"
                )
            on_fault(
                DiskFault(
                    FaultKind.FLUSH_WRITE,
                    time=self.sim.now,
                    drive=self.index,
                    attempts=attempt + 1,
                ),
                *args,
            )
            return
        self.busy = False
        self.position = oid
        self.stats.record_write(self.write_seconds, seek_distance)
        on_complete(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self.busy else "idle"
        return f"<DiskDrive {self.index} {state} pos={self.position}>"
