"""The workload generator driving a log manager (Figure 3 semantics).

Per transaction of type with lifetime ``T`` and ``N`` data records:

* the BEGIN record is written at initiation time ``t0``;
* data record *i* (1-based) is written at ``t0 + i*(T-eps)/N`` — equally
  spaced, the last one ``eps`` before completion;
* the COMMIT record is written at ``t0 + T`` (``t3``), after which the
  transaction "waits for acknowledgement from the LM before it actually
  commits" (``t4``, the group-commit delay).

"We do not model feedback in the transaction scheduling": arrivals and
record times are independent of log-manager performance, exactly as in the
paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro.constants import EPSILON_SECONDS
from repro.core.interface import LogManager
from repro.errors import WorkloadError
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.workload.arrivals import ArrivalProcess, DeterministicArrivals
from repro.workload.oids import OidChooser
from repro.workload.spec import WorkloadMix
from repro.workload.transactions import TransactionRun, TxOutcome


class AckedUpdate(NamedTuple):
    """One durably committed update, for recovery verification."""

    oid: int
    value: int
    timestamp: float
    lsn: int
    ack_time: float


@dataclass
class WorkloadStats:
    """Aggregate outcome counters collected by the generator."""

    begun: int = 0
    committed: int = 0
    killed: int = 0
    unfinished: int = 0
    updates_written: int = 0
    commit_latency_total: float = 0.0
    commit_latency_max: float = 0.0
    per_type_begun: Dict[str, int] = field(default_factory=dict)
    per_type_committed: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_commit_latency(self) -> float:
        """Mean group-commit delay t4 − t3 over committed transactions."""
        if self.committed == 0:
            return 0.0
        return self.commit_latency_total / self.committed


class WorkloadGenerator:
    """Initiates transactions and plays their record schedules into a LM."""

    def __init__(
        self,
        sim: Simulator,
        manager: LogManager,
        mix: WorkloadMix,
        *,
        arrival_rate: float,
        runtime: float,
        rng: SimRng,
        num_objects: int,
        arrivals: Optional[ArrivalProcess] = None,
        epsilon: float = EPSILON_SECONDS,
        lifetime_hints: bool = False,
        collect_truth: bool = True,
        skew=None,
    ):
        if runtime <= 0:
            raise WorkloadError(f"runtime must be positive, got {runtime}")
        if epsilon <= 0:
            raise WorkloadError(f"epsilon must be positive, got {epsilon}")
        self.sim = sim
        self.manager = manager
        self.mix = mix
        self.runtime = runtime
        self.epsilon = epsilon
        self.lifetime_hints = lifetime_hints
        self.collect_truth = collect_truth
        self.arrivals = arrivals or DeterministicArrivals(arrival_rate)
        self._type_rng = rng.stream("tx-type")
        self._arrival_rng = rng.stream("arrivals")
        self.oid_chooser = OidChooser(num_objects, rng.stream("oids"), skew=skew)
        self._weights = mix.weights
        # Per type (parallel to ``mix.types``): the Figure-3 offsets of its
        # data records from initiation, computed once instead of per
        # transaction.
        self._timetables = [
            tuple(
                i * ((tx_type.duration - epsilon) / max(tx_type.record_count, 1))
                for i in range(1, tx_type.record_count + 1)
            )
            for tx_type in mix.types
        ]
        self._next_tid = itertools.count(1)
        self._next_value = itertools.count(1)

        self.active: Dict[int, TransactionRun] = {}
        self.stats = WorkloadStats()
        #: Every durably committed update, in acknowledgement order.
        self.acked_updates: List[AckedUpdate] = []

        manager.on_kill = self._handle_kill

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first arrival; call once before running the sim."""
        self.sim.at(0.0, self._arrive)

    def finish(self) -> None:
        """Mark transactions still running at the end as unfinished."""
        for run in self.active.values():
            if run.outcome is TxOutcome.RUNNING:
                run.outcome = TxOutcome.UNFINISHED
                self.stats.unfinished += 1

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _arrive(self) -> None:
        self._initiate()
        next_time = self.sim.now + self.arrivals.next_interval(self._arrival_rng)
        if next_time < self.runtime:
            self.sim.at(next_time, self._arrive)

    def _initiate(self) -> None:
        type_index = self._pick_type()
        tx_type = self.mix.types[type_index]
        tid = next(self._next_tid)
        run = TransactionRun(tid, tx_type, self.sim.now)
        self.active[tid] = run
        self.stats.begun += 1
        self.stats.per_type_begun[tx_type.name] = (
            self.stats.per_type_begun.get(tx_type.name, 0) + 1
        )
        hint = tx_type.duration if self.lifetime_hints else None
        self.manager.begin(tid, expected_lifetime=hint)

        # Schedule the Figure-3 record timetable.
        after = self.sim.after
        pending = run.pending_events
        for offset in self._timetables[type_index]:
            pending.append(after(offset, self._write_update, run))
        pending.append(after(tx_type.duration, self._request_commit, run))

    def _write_update(self, run: TransactionRun) -> None:
        if run.outcome is not TxOutcome.RUNNING:
            return
        oid = self.oid_chooser.acquire()
        value = next(self._next_value)
        record = self.manager.log_update(
            run.tid, oid, value, run.tx_type.record_bytes
        )
        run.oids.append(oid)
        run.updates.append((oid, value, self.sim.now))
        run.update_lsns.append(record.lsn)
        self.stats.updates_written += 1

    def _request_commit(self, run: TransactionRun) -> None:
        if run.outcome is not TxOutcome.RUNNING:
            return
        run.commit_request_time = self.sim.now
        self.manager.request_commit(run.tid, self._handle_ack)

    def _handle_ack(self, tid: int, ack_time: float) -> None:
        run = self.active.pop(tid, None)
        if run is None or run.outcome is not TxOutcome.RUNNING:
            return
        run.outcome = TxOutcome.COMMITTED
        run.ack_time = ack_time
        # Every scheduled record write has fired by now, and each handle's
        # args point back at ``run``: dropping them breaks the cycle so
        # refcounting, not the cyclic collector, frees the finished run.
        run.pending_events.clear()
        self.stats.committed += 1
        self.stats.per_type_committed[run.tx_type.name] = (
            self.stats.per_type_committed.get(run.tx_type.name, 0) + 1
        )
        latency = run.commit_latency or 0.0
        self.stats.commit_latency_total += latency
        if latency > self.stats.commit_latency_max:
            self.stats.commit_latency_max = latency
        if self.collect_truth:
            for (oid, value, timestamp), lsn in zip(run.updates, run.update_lsns):
                self.acked_updates.append(
                    AckedUpdate(oid, value, timestamp, lsn, ack_time)
                )
        self.oid_chooser.release_all(run.oids)

    def _handle_kill(self, tid: int, kill_time: float) -> None:
        run = self.active.pop(tid, None)
        if run is None:
            return
        run.outcome = TxOutcome.KILLED
        run.cancel_pending()
        self.stats.killed += 1
        self.oid_chooser.release_all(run.oids)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pick_type(self) -> int:
        """Index into ``mix.types`` of the next transaction's type."""
        r = self._type_rng.random()
        acc = 0.0
        for index, weight in enumerate(self._weights):
            acc += weight
            if r < acc:
                return index
        return len(self._weights) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WorkloadGenerator begun={self.stats.begun} "
            f"committed={self.stats.committed} killed={self.stats.killed}>"
        )
