"""The simulator's metric registry: which names a run reports, and what.

Every simulator count is an int of the component that counts it; the
registry reads those ints when a snapshot is taken.  These tests pin the
name set of five metrics-on runs and check each counter and gauge against
the value it reports.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultPlan
from repro.harness.config import SimulationConfig, Technique
from repro.harness.simulator import Simulation
from repro.obs import ObsConfig

OBS = ObsConfig(metrics=True)

CONFIGS = {
    "el": SimulationConfig.ephemeral((18, 16), runtime=15.0, obs=OBS),
    "fw": SimulationConfig.firewall(60, runtime=15.0, obs=OBS),
    "hybrid": SimulationConfig(
        technique=Technique.HYBRID, generation_sizes=(18, 16), runtime=15.0, obs=OBS
    ),
    "el-2-shards": SimulationConfig.ephemeral((18, 16), runtime=15.0, shards=2, obs=OBS),
    "el-faults": SimulationConfig.ephemeral(
        (18, 16),
        runtime=15.0,
        obs=OBS,
        faults=FaultPlan(
            transient_write_rate=0.1,
            latent_error_rate=0.1,
            flush_fault_rate=0.1,
            max_retries=1,
        ),
    ),
}

FLUSH = [
    "flush.completed",
    "flush.demand",
    "flush.depth",
    "flush.seek_distance",
    "flush.settle_seconds",
    "flush.submitted",
    "flush.superseded",
]
LOG_GEN0 = [
    "log.block_records",
    "log.gen0.blocks_written",
    "log.gen0.bytes_written",
    "pool.gen0.in_use",
]
LOG_GEN1 = ["log.gen1.blocks_written", "log.gen1.bytes_written", "pool.gen1.in_use"]
#: What every manager reports about its transactions.
OUTCOMES = ["aborted", "begun", "committed", "kills"]
MANAGER = OUTCOMES + [
    "demand_flushes",
    "emergency_recirculations",
    "forced_migration_seals",
    "forwarded",
    "gap_blocks_processed",
    "gap_episodes",
    "garbage_discarded",
    "pressure_episodes",
    "recirculated",
]
EL = FLUSH + LOG_GEN0 + LOG_GEN1 + [f"el.{name}" for name in MANAGER]

#: The registry names of each run.
NAMES = {
    "el": EL,
    "fw": FLUSH + LOG_GEN0 + ["fw.blocks_reclaimed"] + [f"fw.{name}" for name in MANAGER],
    "hybrid": FLUSH
    + LOG_GEN0
    + LOG_GEN1
    + ["hybrid.regenerated"]
    + [f"hybrid.{name}" for name in OUTCOMES],
    "el-2-shards": [f"s{i}.{name}" for i in (0, 1) for name in EL]
    + ["shard.cross_shard_commits", "shard.single_shard_commits"]
    + [f"shard.{name}" for name in OUTCOMES],
    "el-faults": EL
    + [
        "el.fault.blocks_retired",
        "el.fault.deferred_acks",
        "el.fault.records_healed",
        "el.fault.records_stabilised",
        "faults.injected.flush_write",
        "faults.injected.latent_error",
        "faults.injected.torn_write",
        "faults.injected.transient_write",
    ],
}


@pytest.fixture(scope="module")
def runs():
    """Each case's manager and registry snapshot after its run."""
    results = {}
    for case, config in CONFIGS.items():
        simulation = Simulation(config)
        simulation.run()
        results[case] = (simulation.manager, simulation.obs.metrics.snapshot())
    return results


def log_ints(manager, prefix: str = "") -> dict:
    """The scheduler's, generations' and pools' counts under their names."""
    scheduler = manager.scheduler
    ints = {
        prefix + "flush.submitted": scheduler.submitted,
        prefix + "flush.completed": scheduler.completed,
        prefix + "flush.demand": scheduler.demand_flushes,
        prefix + "flush.depth": (scheduler.backlog(), scheduler.peak_backlog),
        prefix + "flush.superseded": scheduler.superseded_in_pool,
        prefix + "flush.seek_distance": scheduler.mean_seek_distance(),
    }
    for generation in manager.generations:
        log = f"{prefix}log.gen{generation.index}."
        ints[log + "blocks_written"] = generation.blocks_written
        ints[log + "bytes_written"] = generation.bytes_written
        ints[f"{prefix}pool.gen{generation.index}.in_use"] = (
            generation.pool.in_use,
            generation.pool.peak_in_use,
        )
    return ints


def outcome_ints(manager, source: str) -> dict:
    """A manager's transaction outcomes under ``source``."""
    return {
        f"{source}.begun": manager.begun_count,
        f"{source}.committed": manager.committed_count,
        f"{source}.aborted": manager.aborted_count,
        f"{source}.kills": manager.kill_count,
    }


def manager_ints(manager, prefix: str = "") -> dict:
    """Every int an EL/FW manager's counters and gauges report."""
    source = prefix + manager.trace_source
    ints = {
        **log_ints(manager, prefix),
        **outcome_ints(manager, source),
        f"{source}.forwarded": manager.forwarded_records,
        f"{source}.recirculated": manager.recirculated_records,
        f"{source}.emergency_recirculations": manager.emergency_recirculations,
        f"{source}.pressure_episodes": manager.pressure_episodes,
        f"{source}.forced_migration_seals": manager.forced_migration_seals,
        f"{source}.garbage_discarded": manager.garbage_copies_discarded,
        f"{source}.gap_episodes": manager.gap_episodes,
        f"{source}.demand_flushes": (
            manager.scheduler.demand_flushes - manager.fault_demand_flushes
        ),
    }
    if manager.trace_source == "fw":
        ints[f"{prefix}fw.blocks_reclaimed"] = manager.blocks_reclaimed
    if manager.faults.enabled:
        ints[f"{source}.fault.blocks_retired"] = manager.blocks_retired
        ints[f"{source}.fault.records_healed"] = manager.records_healed
        ints[f"{source}.fault.records_stabilised"] = manager.records_stabilised
        ints[f"{source}.fault.deferred_acks"] = manager.deferred_acks
        faults = manager.faults
        ints[f"{prefix}faults.injected.transient_write"] = faults.transient_writes
        ints[f"{prefix}faults.injected.torn_write"] = faults.torn_writes
        ints[f"{prefix}faults.injected.latent_error"] = faults.latent_errors
        ints[f"{prefix}faults.injected.flush_write"] = faults.flush_faults
    return ints


def expected_ints(case: str, manager) -> dict:
    if case == "hybrid":
        return {
            **log_ints(manager),
            **outcome_ints(manager, "hybrid"),
            "hybrid.regenerated": manager.regenerated_records,
        }
    if case == "el-2-shards":
        ints = {
            **outcome_ints(manager, "shard"),
            "shard.cross_shard_commits": manager.cross_shard_commits,
            "shard.single_shard_commits": manager.single_shard_commits,
        }
        for index, shard in enumerate(manager.shards):
            ints.update(manager_ints(shard, f"s{index}."))
        return ints
    return manager_ints(manager)


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_registry_names_are_pinned(runs, case):
    _, snapshot = runs[case]
    assert sorted(snapshot) == sorted(NAMES[case])


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_every_count_reports_its_int(runs, case):
    manager, snapshot = runs[case]
    reported = {}
    for name, metric in snapshot.items():
        if metric["type"] == "counter":
            reported[name] = metric["value"]
        elif metric["type"] == "gauge":
            reported[name] = (metric["value"], metric["peak"])
    assert reported == expected_ints(case, manager)
    for name, metric in snapshot.items():
        if name.endswith(".gap_blocks_processed"):
            episodes = snapshot[name.replace("gap_blocks_processed", "gap_episodes")]
            assert metric["count"] == episodes["value"]


def test_fault_run_counts_are_pinned(runs):
    """The fault paths' counts; demand flushes net of the fault path's own."""
    _, snapshot = runs["el-faults"]
    values = {
        name: (metric["value"], metric.get("peak"))
        for name, metric in snapshot.items()
        if metric["type"] != "histogram"
    }
    assert values == {
        "el.aborted": (0, None),
        "el.begun": (1501, None),
        "el.committed": (1347, None),
        "el.demand_flushes": (0, None),
        "el.emergency_recirculations": (0, None),
        "el.fault.blocks_retired": (3, None),
        "el.fault.deferred_acks": (0, None),
        "el.fault.records_healed": (33, None),
        "el.fault.records_stabilised": (21, None),
        "el.forced_migration_seals": (0, None),
        "el.forwarded": (1104, None),
        "el.gap_episodes": (152, None),
        "el.garbage_discarded": (5585, None),
        "el.kills": (0, None),
        "el.pressure_episodes": (0, None),
        "el.recirculated": (20, None),
        "faults.injected.flush_write": (338, None),
        "faults.injected.latent_error": (14, None),
        "faults.injected.torn_write": (0, None),
        "faults.injected.transient_write": (20, None),
        "flush.completed": (2729, None),
        "flush.demand": (23, None),
        "flush.depth": (11, 25),
        "flush.seek_distance": (211465.88548504742, None),
        "flush.submitted": (2762, None),
        "flush.superseded": (0, None),
        "log.gen0.blocks_written": (162, None),
        "log.gen0.bytes_written": (313116, None),
        "log.gen1.blocks_written": (19, None),
        "log.gen1.bytes_written": (36244, None),
        "pool.gen0.in_use": (1, 3),
        "pool.gen1.in_use": (0, 1),
    }


def test_fault_names_appear_only_on_fault_runs(runs):
    for case in ("el", "fw", "hybrid", "el-2-shards"):
        _, snapshot = runs[case]
        assert not [name for name in snapshot if "fault" in name]
