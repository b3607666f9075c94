"""The simulator phases of a workload: the paper point and the figure pass.

Both run in the benchmark's own process with the probe interleaved (see
``probe.py``); every pass is checked against fixed reference outputs
before its time counts.  The simulator seed is fixed at 0, because the
references are defined there.  Each workload runs one technique:

- the *paper point*: the technique's ROADMAP paper point at the paper's
  5 % mix and 500 simulated seconds, checked value for value;
- the *figure pass*: the technique's side of Figures 4-6 at a reduced
  scale (the minimum-space searches ``run_figures_4_5_6`` makes for it at
  two mix points) plus one E7 crash capture through ``SinglePassRecovery``
  and ``RecoveryVerifier``.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from probe import Probe, Scaled

from repro.faults.crash import run_crash_consistency
from repro.faults.plan import FaultPlan
from repro.harness.config import SimulationConfig
from repro.harness.search import SpaceSearch
from repro.harness.simulator import Simulation

#: The ROADMAP paper points at the paper's 5 % mix and 500 simulated
#: seconds: config and total log block writes per second.
PAPER_POINTS: Dict[str, Tuple[SimulationConfig, float]] = {
    "el": (
        SimulationConfig.ephemeral(
            (18, 16), recirculation=True, long_fraction=0.05, runtime=500.0
        ),
        12.87,
    ),
    "fw": (
        SimulationConfig.firewall(123, long_fraction=0.05, runtime=500.0),
        11.63,
    ),
}

#: Mean simulated commit latency of both paper points, in ms (3 decimals).
PAPER_COMMIT_MEAN_MS = 62.536

#: Reduced-scale Figures 4-6: two mix points, 10 simulated seconds a run,
#: one gen-0 candidate and no refinement for EL.  Each minimum-space search
#: still walks both sides of feasibility.
FIGURE_MIXES = (0.05, 0.40)
FIGURE_RUNTIME = 10.0
GEN0_CANDIDATES = (16,)

#: Figure 4 at that scale, seed 0: the minimum sizes at each mix point.
FIGURE4_REFERENCE = {
    "fw": ((105,), (95,)),
    "el": ((16, 13), (16, 29)),
}

#: The E7 crash capture: the paper point's configuration crashed twice in
#: 25 simulated seconds; recovery must replay records at each crash.
CRASH_TIMES = (12.5, 25.0)


def crash_config(technique: str) -> SimulationConfig:
    config, _ = PAPER_POINTS[technique]
    return config.replace(runtime=25.0, faults=FaultPlan(crash_times=CRASH_TIMES))


@dataclass
class Pass:
    """One checked unit of work and its timing."""

    name: str
    scaled: Scaled
    wall_s: float
    ok: bool
    begun: int = 0
    killed: int = 0
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "wall_s": self.wall_s,
            "begun": self.begun,
            "killed": self.killed,
            **self.scaled.to_dict(),
            **self.detail,
        }


Work = Callable[[str], Tuple[bool, dict]]


def timed(probe: Probe, name: str, work: Work, technique: str) -> Pass:
    wall = time.perf_counter()
    before = probe.mark()
    ok, detail = work(technique)
    after = probe.mark()
    wall = time.perf_counter() - wall
    begun = detail.pop("begun", 0)
    killed = detail.pop("killed", 0)
    return Pass(name, probe.measure(before, after), wall, ok, begun, killed, detail)


def paper_point(technique: str) -> Tuple[bool, dict]:
    """Run the technique's paper point and compare it with its references."""
    config, reference_wps = PAPER_POINTS[technique]
    result = Simulation(config).run()
    mix = config.workload_mix()
    (user_record_bytes,) = {t.record_bytes for t in mix.types}  # one record size
    wps = round(result.total_bandwidth_wps, 2)
    ok = (
        result.failed is None
        and result.transactions_killed == 0
        and wps == reference_wps
        and round(1000.0 * result.mean_commit_latency, 3) == PAPER_COMMIT_MEAN_MS
    )
    return ok, {
        "begun": result.transactions_begun,
        "killed": result.transactions_killed,
        "bandwidth_wps": wps,
        "reference_wps": reference_wps,
        "events": result.events_executed,
        "log_bytes": sum(g.bytes_written for g in result.generations),
        "user_bytes": result.updates_written * user_record_bytes,
        "commit_mean_ms": 1000.0 * result.mean_commit_latency,
    }


def _minimum_sizes(technique: str, fraction: float) -> Tuple[int, ...]:
    """The search ``run_figures_4_5_6`` makes for one technique and mix."""
    if technique == "fw":
        template = SimulationConfig.firewall(
            log_blocks=64, long_fraction=fraction, runtime=FIGURE_RUNTIME, seed=0
        )
        return SpaceSearch(template).fw_minimum().sizes
    template = SimulationConfig.ephemeral(
        (18, 16), recirculation=False, long_fraction=fraction,
        runtime=FIGURE_RUNTIME, seed=0,
    )
    return SpaceSearch(template).el_minimum(GEN0_CANDIDATES, refine_radius=0).sizes


def figure_pass(technique: str) -> Tuple[bool, dict]:
    """The technique's reduced Figure 4 column, then one E7 crash capture."""
    table = tuple(tuple(_minimum_sizes(technique, f)) for f in FIGURE_MIXES)
    report = run_crash_consistency(crash_config(technique))
    applied = [check.records_applied for check in report.checks]
    lost = sum(len(check.report.lost_updates) for check in report.checks)
    phantom = sum(len(check.report.phantom_objects) for check in report.checks)
    ok = (
        table == FIGURE4_REFERENCE[technique]
        and report.ok
        and lost == 0
        and phantom == 0
        and len(applied) == len(CRASH_TIMES)
        and all(n > 0 for n in applied)
        and report.result.transactions_killed == 0
    )
    return ok, {
        "begun": report.result.transactions_begun,
        "killed": report.result.transactions_killed,
        "figure4": [list(row) for row in table],
        "records_applied": applied,
        "lost": lost,
        "phantom": phantom,
    }


#: The two simulator phases, in the order a run makes them.
PHASES: Tuple[Tuple[str, Work], ...] = (
    ("paper", paper_point),
    ("figures", figure_pass),
)


#: Passes a phase makes at least.  The second pass of a paper point
#: raises the process's peak RSS by a few MB (the allocator's arenas
#: fragment) and later passes do not, so with two or more the peak no
#: longer depends on how many passes the host's speed allowed.
MIN_PASSES = 2


def repeat(
    probe: Probe, name: str, work: Work, technique: str, seconds: float
) -> List[Pass]:
    """Run checked passes of ``work`` for about ``seconds``.

    Another pass starts while the time spent plus half a mean pass stays
    below ``seconds``, so a run measures whole passes, at least
    ``MIN_PASSES``.  Each pass starts from a collected heap.
    """
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        passes.append(timed(probe, name, work, technique))
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes


def tally(passes: List[Pass]) -> dict:
    """Check outcome and counts: transactions begun, killed, failed passes.

    The probe runs inside a minimum-space search kill transactions on
    purpose, so only the paper point and the crash capture are counted.
    """
    return {
        "ok": all(p.ok for p in passes),
        "attempted": sum(p.begun for p in passes),
        "failed": sum(p.killed for p in passes) + sum(1 for p in passes if not p.ok),
    }


def events_per_s(paper: List[Pass]) -> float:
    """Simulator events per reference second over the paper point passes."""
    return sum(p.detail["events"] for p in paper) / sum(p.scaled.reference_s for p in paper)


def regen_s(figures: List[Pass]) -> float:
    """Reference seconds of one figure pass, the median over the run's passes."""
    return statistics.median(p.scaled.reference_s for p in figures)


def log_bytes_per_user_byte(paper: List[Pass]) -> float:
    """Log bytes per user byte of the paper point (deterministic)."""
    return paper[0].detail["log_bytes"] / paper[0].detail["user_bytes"]
