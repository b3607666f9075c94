"""Per-drive I/O statistics, including the paper's flush-locality metric."""

from __future__ import annotations


class DriveStats:
    """Counters for one disk drive.

    The paper assesses flush locality via "the average distance between oids
    of successively flushed objects" (circular distance within the drive's
    oid range); :attr:`mean_seek_distance` is that quantity for this drive.
    """

    __slots__ = (
        "writes",
        "busy_seconds",
        "seek_distance_total",
        "seek_samples",
        "faults",
    )

    def __init__(self) -> None:
        self.writes = 0
        self.busy_seconds = 0.0
        self.seek_distance_total = 0
        self.seek_samples = 0
        #: Injected write-attempt failures (fault-injected runs only).
        self.faults = 0

    def record_write(self, service_seconds: float, seek_distance: int | None) -> None:
        """Account one completed write and (optionally) its oid distance."""
        self.writes += 1
        self.busy_seconds += service_seconds
        if seek_distance is not None:
            self.seek_distance_total += seek_distance
            self.seek_samples += 1

    def record_fault(self, service_seconds: float) -> None:
        """Account one failed write attempt: service time spent, no write."""
        self.faults += 1
        self.busy_seconds += service_seconds

    @property
    def mean_seek_distance(self) -> float:
        """Average circular oid distance between successive flushes (0 if <2)."""
        if self.seek_samples == 0:
            return 0.0
        return self.seek_distance_total / self.seek_samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DriveStats writes={self.writes} busy={self.busy_seconds:.3f}s "
            f"mean_seek={self.mean_seek_distance:.0f}>"
        )
