"""Whole-system crash capture and crash-consistency verification.

A "crash" in this simulator is observational: at each scheduled crash
instant the run is paused, the durable on-disk state is captured exactly
as a recovery manager would find it — including torn prefixes of writes
that were in flight — recovery is executed over that snapshot, and the
result is checked against the workload's acknowledged ground truth.  The
simulation then continues to the next crash point, so one run verifies
every scheduled crash.

Every crash check — a chaos run's crash points, ``repro recover``, the
recovery tests and the live service's gates — goes through
:func:`check_crash`: one single-pass recovery, one verdict, and the count
of log-essential updates, the acknowledged updates only the log could
bring back.  Simulated crashes reach it through :func:`crash_simulation`.

Tearing is deterministic: the prefix length kept for each in-flight
block is drawn from a dedicated ``random.Random`` seeded from the run
seed, independent of every simulation stream, so crash snapshots are
reproducible and adding crash points never perturbs the run itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.db.objects import ObjectVersion
from repro.disk.block import BlockImage
from repro.errors import ConfigurationError
from repro.harness.config import SimulationConfig, Technique
from repro.harness.results import SimulationResult
from repro.harness.simulator import Simulation
from repro.recovery.single_pass import SinglePassRecovery
from repro.recovery.verify import CrashConsistencyReport, RecoveryVerifier
from repro.workload.generator import AckedUpdate


def capture_crash_images(
    simulation: Simulation, torn_rng: Optional[random.Random] = None
) -> List[BlockImage]:
    """What the log disks hold if the system dies right now.

    Durable blocks survive as written (latent-error victims keep their
    ``unreadable`` mark).  Each write still in flight leaves a *torn*
    prefix — zero or more leading records under the full block's
    checksum, so recovery detects and discards it — unless the plan says
    torn prefixes are not persisted at all (``torn_on_crash=False``),
    in which case in-flight writes simply vanish.
    """
    plan = simulation.config.faults
    images = list(simulation.capture_durable_log())
    if plan is None or not plan.torn_on_crash:
        return images
    for generation in simulation.manager.generations:
        for image in generation.in_flight.values():
            if not image.records:
                continue
            keep = (
                torn_rng.randrange(len(image.records))
                if torn_rng is not None
                else 0
            )
            images.append(image.torn_copy(keep))
    return images


def acks_can_lag(config: Optional[SimulationConfig]) -> bool:
    """Whether a run may make an update durable before acknowledging it.

    A run under a fault plan may defer an acknowledgement behind a
    healing hold; a cross-shard commit is durable on one shard before the
    last shard's COMMIT lets it be acknowledged; a live server (``config``
    is None) can die between its fsync and its reply.  There a recovered
    version may come from a transaction nobody saw acknowledged, so the
    check admits the log and the stable database as explanations.  Any
    other simulated run acknowledges the instant its COMMIT record is
    durable, and is held to the strict comparison.
    """
    if config is None:
        return True
    plan = config.faults
    return config.shards > 1 or (plan is not None and plan.any_enabled)


@dataclass
class CrashCheck:
    """Everything observed at one crash point."""

    time: float
    #: Acknowledged updates whose version the stable database lacks: what
    #: a recovery with no log would lose.
    log_essential: int
    report: CrashConsistencyReport
    #: The recovery that ran and the state it rebuilt; not in :meth:`to_dict`.
    recovery: SinglePassRecovery = field(repr=False, compare=False)
    recovered: Dict[int, ObjectVersion] = field(repr=False, compare=False)

    @property
    def captured_blocks(self) -> int:
        return len(self.recovery.images)

    @property
    def records_applied(self) -> int:
        return self.recovery.records_applied

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "captured_blocks": self.captured_blocks,
            "records_applied": self.records_applied,
            "log_essential": self.log_essential,
            "report": self.report.to_dict(),
        }


def check_crash(
    images: Sequence[BlockImage],
    stable: Dict[int, ObjectVersion],
    acked_updates: Iterable[AckedUpdate],
    crash_time: float,
    config: Optional[SimulationConfig] = None,
) -> CrashCheck:
    """Recover from one crash in a single pass and verify the outcome.

    ``images`` and ``stable`` are the log blocks and the stable database
    that survived the crash at ``crash_time``; ``acked_updates`` is the
    client's record of acknowledged updates.  ``config`` is the simulated
    run's configuration (None for a live run): it decides, through
    :func:`acks_can_lag`, whether the verifier may explain a recovered
    version by the log or the stable database.
    """
    recovery = SinglePassRecovery(images)
    recovered = recovery.recover(stable)
    verifier = RecoveryVerifier(acked_updates)
    evidence = (
        {"scan": recovery.scan, "stable": stable} if acks_can_lag(config) else {}
    )
    report = verifier.check_crash_consistency(crash_time, recovered, **evidence)
    log_essential = sum(
        1
        for oid, version in verifier.expected_state(crash_time).items()
        if version.is_newer_than(stable.get(oid))
    )
    return CrashCheck(crash_time, log_essential, report, recovery, recovered)


def crash_simulation(
    simulation: Simulation,
    when: float,
    torn_rng: Optional[random.Random] = None,
) -> CrashCheck:
    """Run ``simulation`` to ``when``, crash it there and check recovery.

    The simulation must collect ground truth (``collect_truth``); it can
    run on past ``when`` afterwards, since a crash only observes it.
    """
    simulation.run_until(when)
    return check_crash(
        capture_crash_images(simulation, torn_rng),
        simulation.capture_stable_database(),
        simulation.generator.acked_updates,
        when,
        simulation.config,
    )


@dataclass
class ChaosReport:
    """Outcome of one fault-injected run with crash-consistency checks."""

    technique: str
    seed: int
    fingerprint: str
    checks: List[CrashCheck] = field(default_factory=list)
    result: Optional[SimulationResult] = None

    @property
    def violations(self) -> int:
        return sum(check.report.violations for check in self.checks)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "technique": self.technique,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "violations": self.violations,
            "ok": self.ok,
            "checks": [check.to_dict() for check in self.checks],
            "result": self.result.to_dict() if self.result else None,
        }


def run_crash_consistency(config: SimulationConfig) -> ChaosReport:
    """Run ``config`` and verify recovery at every scheduled crash point.

    The config's fault plan must schedule at least one crash.  Ground
    truth collection is forced on (the verifier needs the acknowledged
    updates); everything else is taken as given, so fault rates and
    crash checks compose freely.
    """
    plan = config.faults
    if plan is None or not plan.crash_times:
        raise ConfigurationError(
            "crash-consistency runs need a FaultPlan with crash_times"
        )
    if config.technique is Technique.HYBRID:
        raise ConfigurationError("the hybrid manager does not support faults")
    if not config.collect_truth:
        config = config.replace(collect_truth=True)

    torn_rng = random.Random(f"{config.seed}/faults/crash-torn")
    simulation = Simulation(config)
    report = ChaosReport(
        technique=config.technique.value,
        seed=config.seed,
        fingerprint=config.fingerprint(),
    )
    for when in sorted(t for t in plan.crash_times if t <= config.runtime):
        check = crash_simulation(simulation, when, torn_rng)
        if simulation.obs.trace.enabled:
            simulation.obs.trace.emit(
                simulation.sim.now,
                "fault",
                "crash_check",
                {
                    "time": when,
                    "ok": check.report.ok,
                    "lost": len(check.report.lost_updates),
                    "phantom": len(check.report.phantom_objects),
                    "blocks": check.captured_blocks,
                },
            )
        report.checks.append(check)
    report.result = simulation.run()
    return report
