"""Firewall (FW) logging — the System R baseline.

"Traditionally, the log of database activity must hold all records which
have been written (by all transactions) since the oldest active transaction
began; this space in the log cannot be freed up until the oldest active
transaction finishes. ... If a transaction lives too long, the log may run
out of disk space to hold new records.  System R's solution is to simply
kill off excessively lengthy transactions."

The paper simulates FW as "a single log with no recirculation" and without a
checkpoint facility — "the firewall was always the oldest non-garbage log
record from the oldest active transaction".  That is exactly the EL
machinery restricted to one generation with recirculation disabled, so this
class is a thin configuration of :class:`~repro.core.ephemeral.EphemeralLogManager`
plus FW memory accounting (22 bytes per transaction) and firewall-position
introspection.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ephemeral import EphemeralLogManager
from repro.core.interface import UnflushedHeadPolicy
from repro.core.killpolicy import KillPolicy
from repro.core.memory import MemoryModel
from repro.db.database import StableDatabase
from repro.obs.events import NULL_TRACE, EventStream
from repro.sim.engine import Simulator


class FirewallLogManager(EphemeralLogManager):
    """Single-queue firewall logging with kill-on-full semantics."""

    #: FW events/metrics live in their own namespace even though the
    #: machinery is shared, so EL/FW traces are directly comparable.
    trace_source = "fw"

    def __init__(
        self,
        sim: Simulator,
        database: StableDatabase,
        *,
        log_blocks: int,
        flush_drives: int = 10,
        flush_write_seconds: float = 0.025,
        kill_policy: KillPolicy = KillPolicy.BLOCKING,
        trace: EventStream = NULL_TRACE,
        **kwargs,
    ):
        super().__init__(
            sim,
            database,
            generation_sizes=[log_blocks],
            recirculation=False,
            flush_drives=flush_drives,
            flush_write_seconds=flush_write_seconds,
            # With one generation and no recirculation, a committed-unflushed
            # update at the head has nowhere to go but the stable database.
            unflushed_head_policy=UnflushedHeadPolicy.KEEP_IN_LOG,
            kill_policy=kill_policy,
            memory_model=MemoryModel.firewall(),
            trace=trace,
            **kwargs,
        )
        #: Head blocks freed (the firewall's space reclamation).
        self.blocks_reclaimed = 0
        self.metrics.view("fw.blocks_reclaimed", lambda: self.blocks_reclaimed)

    @property
    def log(self):
        """The single log queue."""
        return self.generations[0]

    def firewall_distance(self) -> Optional[int]:
        """Blocks between the head and the oldest non-garbage record.

        ``0`` means the firewall sits in the head block (no reclaimable
        prefix); ``None`` means the log holds no non-garbage records at all.
        """
        head_cell = self.log.cells.head
        if head_cell is None:
            return None
        return self.log.array.slot_offset(head_cell.address.slot)

    def reclaimable_blocks(self) -> int:
        """Blocks before the firewall that head advancement could free."""
        distance = self.firewall_distance()
        if distance is None:
            return self.log.array.used
        return distance

    def _advance_head_once(self, gen_index: int) -> bool:
        advanced = super()._advance_head_once(gen_index)
        if advanced:
            self.blocks_reclaimed += 1
            if self.trace.enabled:
                self.trace.emit(
                    self.sim.now,
                    "fw",
                    "space_reclaim",
                    {
                        "free_blocks": self.log.array.free,
                        "reclaimable": self.reclaimable_blocks(),
                    },
                )
        return advanced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FirewallLogManager blocks={self.log.capacity} "
            f"kills={self.kill_count}>"
        )
