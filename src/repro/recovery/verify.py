"""Recovery verification against the workload's ground truth.

The durability contract under test (design invariant 5): after a crash at
time *t*, recovery over the durable log plus the stable database must
reconstruct exactly the updates of transactions *acknowledged* by *t* —
every acknowledged update survives (durability), and no value from an
unacknowledged transaction appears (atomicity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.db.objects import ObjectVersion
from repro.recovery.analyzer import LogScan
from repro.workload.generator import AckedUpdate


class RecoveryVerifier:
    """Builds the expected state from acknowledged updates and diffs it."""

    def __init__(self, acked_updates: Iterable[AckedUpdate]):
        self.acked_updates = list(acked_updates)

    def expected_state(self, crash_time: float) -> Dict[int, ObjectVersion]:
        """oid -> the newest update acknowledged no later than ``crash_time``."""
        state: Dict[int, ObjectVersion] = {}
        for update in self.acked_updates:
            if update.ack_time > crash_time:
                continue
            version = ObjectVersion(update.value, update.timestamp, update.lsn)
            if version.is_newer_than(state.get(update.oid)):
                state[update.oid] = version
        return state

    def check_crash_consistency(
        self,
        crash_time: float,
        recovered: Dict[int, ObjectVersion],
        *,
        scan: Optional[LogScan] = None,
        stable: Optional[Dict[int, ObjectVersion]] = None,
    ) -> "CrashConsistencyReport":
        """The fault-model invariants at one crash point.

        * **No lost acknowledged update** — every object version the
          workload saw acknowledged by ``crash_time`` is recovered at
          that version or a newer one.  (Newer is legal: a transaction
          may be durably committed while its acknowledgement was still
          deferred behind a fault-healing hold.)
        * **No phantom object** — every recovered version is explainable
          by the evidence at the crash: it is the expected acknowledged
          version, it was already in the stable database, or a committed
          data record carrying it was durably in the log.

        A recovered version *is* the acknowledged one when its timestamp
        and value match: the hybrid regenerates records under fresh LSNs
        with their original timestamps, so an LSN does not identify a
        version across copies.

        ``scan`` and ``stable`` widen the set of admissible explanations.
        Without them the check is strict: a recovered object must hold
        exactly its acknowledged version, or be absent when nothing was
        acknowledged for it.
        """
        expected = self.expected_state(crash_time)
        report = CrashConsistencyReport(
            crash_time=crash_time,
            expected_objects=len(expected),
            recovered_objects=len(recovered),
        )
        if scan is not None:
            report.unreadable_blocks = scan.unreadable_blocks
            report.corrupt_blocks = scan.corrupt_blocks

        lost_oids: Set[int] = set()
        for oid in sorted(expected):
            version = expected[oid]
            got = recovered.get(oid)
            if got is None or version.is_newer_than(got):
                lost_oids.add(oid)
                report.lost_updates.append(
                    (oid, version.value, got.value if got else None)
                )

        durable_committed: Set[Tuple[int, int]] = set()
        if scan is not None:
            durable_committed = {
                (record.oid, record.lsn)
                for record in scan.committed_data_records()
            }
        for oid in sorted(recovered):
            if oid in lost_oids:
                continue  # already reported; a stale value is not a phantom
            got = recovered[oid]
            exp = expected.get(oid)
            if exp is not None and (got.timestamp, got.value) == (
                exp.timestamp, exp.value
            ):
                continue
            in_stable = stable is not None and (
                (held := stable.get(oid)) is not None and held.lsn == got.lsn
            )
            if in_stable:
                continue
            if (oid, got.lsn) in durable_committed:
                continue
            report.phantom_objects.append((oid, got.value))
        return report


@dataclass
class CrashConsistencyReport:
    """Outcome of one fault-aware crash-consistency check."""

    crash_time: float
    expected_objects: int
    recovered_objects: int
    #: (oid, acknowledged value, recovered value or None) — durability broken.
    lost_updates: List[Tuple[int, object, object]] = field(default_factory=list)
    #: (oid, recovered value) with no explanation at the crash — atomicity broken.
    phantom_objects: List[Tuple[int, object]] = field(default_factory=list)
    unreadable_blocks: int = 0
    corrupt_blocks: int = 0

    @property
    def violations(self) -> int:
        return len(self.lost_updates) + len(self.phantom_objects)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "crash_time": self.crash_time,
            "expected_objects": self.expected_objects,
            "recovered_objects": self.recovered_objects,
            "lost_updates": [list(item) for item in self.lost_updates],
            "phantom_objects": [list(item) for item in self.phantom_objects],
            "unreadable_blocks": self.unreadable_blocks,
            "corrupt_blocks": self.corrupt_blocks,
            "ok": self.ok,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "ok" if self.ok else (
            f"{len(self.lost_updates)} lost, "
            f"{len(self.phantom_objects)} phantom"
        )
        return f"<CrashConsistencyReport t={self.crash_time} {status}>"
