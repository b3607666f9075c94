"""Structured results of one simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class GenerationResult:
    """Per-generation outcome."""

    capacity_blocks: int
    blocks_written: int
    bytes_written: int
    peak_used_blocks: int
    bandwidth_wps: float  # block writes per second of simulated time
    buffer_peak_in_use: int
    buffer_overdrafts: int


@dataclass
class SimulationResult:
    """Everything a figure needs from one run.

    ``to_dict``/``from_dict`` exist so sweeps can cache results as JSON.
    """

    technique: str
    generation_sizes: List[int]
    recirculation: bool
    long_fraction: float
    runtime: float
    seed: int
    flush_write_seconds: float

    transactions_begun: int = 0
    transactions_committed: int = 0
    transactions_killed: int = 0
    transactions_unfinished: int = 0
    updates_written: int = 0
    mean_commit_latency: float = 0.0
    max_commit_latency: float = 0.0

    fresh_records: int = 0
    forwarded_records: int = 0
    recirculated_records: int = 0
    #: Records rewritten wholesale by the EL-FW hybrid's relocation.
    regenerated_records: int = 0
    garbage_copies_discarded: int = 0

    flushes_completed: int = 0
    demand_flushes: int = 0
    flush_peak_backlog: int = 0
    flush_mean_seek_distance: float = 0.0

    memory_peak_bytes: int = 0
    memory_mean_bytes: float = 0.0
    lot_peak_entries: int = 0
    ltt_peak_entries: int = 0

    generations: List[GenerationResult] = field(default_factory=list)
    events_executed: int = 0
    wall_seconds: float = 0.0
    failed: Optional[str] = None  # LogFullError text when the run aborted
    #: Fault-handling summary (injected counts, retries, remaps, heals);
    #: ``None`` for fault-free runs and then omitted from ``to_dict`` so
    #: their cached documents stay byte-identical to the pre-fault layer.
    faults: Optional[dict] = None
    #: ``single_shard_commits``/``cross_shard_commits`` of a sharded run;
    #: ``None`` (and omitted from ``to_dict``) when ``shards == 1``.
    sharding: Optional[dict] = None

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def total_blocks(self) -> int:
        """Configured log size in blocks (the Figure 4 metric)."""
        return sum(self.generation_sizes)

    @property
    def total_bandwidth_wps(self) -> float:
        """Log block writes per second over all generations (Figure 5)."""
        return sum(g.bandwidth_wps for g in self.generations)

    @property
    def last_generation_bandwidth_wps(self) -> float:
        """Block writes per second to the oldest generation (Figure 7)."""
        if not self.generations:
            return 0.0
        return self.generations[-1].bandwidth_wps

    @property
    def no_kills(self) -> bool:
        """Feasibility criterion of the minimum-space searches."""
        return self.failed is None and self.transactions_killed == 0

    # ------------------------------------------------------------------
    # (De)serialisation for sweep caching
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = {
            key: value
            for key, value in self.__dict__.items()
            if key != "generations"
            and not (key in ("faults", "sharding") and value is None)
        }
        data["generations"] = [dict(g.__dict__) for g in self.generations]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        payload = dict(data)
        generations = [GenerationResult(**g) for g in payload.pop("generations", [])]
        result = cls(**payload)
        result.generations = generations
        return result

    def summary(self) -> Dict[str, float]:
        """The handful of numbers the paper's figures report."""
        return {
            "total_blocks": self.total_blocks,
            "bandwidth_wps": round(self.total_bandwidth_wps, 3),
            "memory_peak_bytes": self.memory_peak_bytes,
            "kills": self.transactions_killed,
            "mean_seek_distance": round(self.flush_mean_seek_distance, 1),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimulationResult {self.technique} sizes={self.generation_sizes} "
            f"kills={self.transactions_killed} "
            f"bw={self.total_bandwidth_wps:.2f}w/s>"
        )
