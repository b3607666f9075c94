"""Whole-system crash capture and crash-consistency verification.

A "crash" in this simulator is observational: at each scheduled crash
instant the run is paused, the durable on-disk state is captured exactly
as a recovery manager would find it — including torn prefixes of writes
that were in flight — recovery is executed over that snapshot, and the
result is checked against the workload's acknowledged ground truth.  The
simulation then continues to the next crash point, so one run verifies
every scheduled crash.

Tearing is deterministic: the prefix length kept for each in-flight
block is drawn from a dedicated ``random.Random`` seeded from the run
seed, independent of every simulation stream, so crash snapshots are
reproducible and adding crash points never perturbs the run itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.disk.block import BlockImage
from repro.errors import ConfigurationError
from repro.harness.config import SimulationConfig, Technique
from repro.harness.results import SimulationResult
from repro.harness.simulator import Simulation
from repro.recovery.single_pass import SinglePassRecovery
from repro.recovery.verify import CrashConsistencyReport, RecoveryVerifier


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


@dataclass
class CrashCheck:
    """Everything observed at one crash point."""

    time: float
    captured_blocks: int
    records_applied: int
    report: CrashConsistencyReport

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "captured_blocks": self.captured_blocks,
            "records_applied": self.records_applied,
            "report": self.report.to_dict(),
        }


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
        simulation.run_until(when)
        images = capture_crash_images(simulation, torn_rng)
        stable = simulation.capture_stable_database()
        recovery = SinglePassRecovery(images)
        recovered = recovery.recover(stable)
        verifier = RecoveryVerifier(simulation.generator.acked_updates)
        check = verifier.check_crash_consistency(
            when, recovered, scan=recovery.scan, stable=stable
        )
        if simulation.obs.trace.enabled:
            simulation.obs.trace.emit(
                simulation.sim.now,
                "fault",
                "crash_check",
                {
                    "time": when,
                    "ok": check.ok,
                    "lost": len(check.lost_updates),
                    "phantom": len(check.phantom_objects),
                    "blocks": len(images),
                },
            )
        report.checks.append(
            CrashCheck(
                time=when,
                captured_blocks=len(images),
                records_applied=recovery.records_applied,
                report=check,
            )
        )
    report.result = simulation.run()
    return report
