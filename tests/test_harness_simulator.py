"""Tests for the Simulation wiring (manager construction, capture, failure)."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.ephemeral import EphemeralLogManager
from repro.core.firewall import FirewallLogManager
from repro.core.hybrid import HybridLogManager
from repro.faults.plan import FaultPlan
from repro.harness.config import SimulationConfig, Technique
from repro.harness.simulator import Simulation, run_simulation


def small(technique=Technique.EPHEMERAL, sizes=(8, 8), **kwargs) -> SimulationConfig:
    defaults = dict(
        technique=technique,
        generation_sizes=sizes,
        recirculation=technique is not Technique.FIREWALL,
        long_fraction=0.1,
        arrival_rate=20.0,
        runtime=10.0,
        num_objects=2000,
        flush_drives=2,
        flush_write_seconds=0.005,
        sample_period=1.0,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestConstruction:
    def test_builds_el_manager(self):
        assert isinstance(Simulation(small()).manager, EphemeralLogManager)

    def test_builds_fw_manager(self):
        simulation = Simulation(small(Technique.FIREWALL, sizes=(40,)))
        assert isinstance(simulation.manager, FirewallLogManager)

    def test_builds_hybrid_manager(self):
        simulation = Simulation(small(Technique.HYBRID, sizes=(12, 12)))
        assert isinstance(simulation.manager, HybridLogManager)

    def test_placement_policy_installed(self):
        simulation = Simulation(small(placement_boundaries=(5.0,)))
        assert simulation.manager.placement is not None

    def test_samplers_registered(self):
        simulation = Simulation(small())
        assert "memory_bytes" in simulation.sampler.series
        assert "flush_backlog" in simulation.sampler.series
        assert "lot_entries" in simulation.sampler.series

    def test_hybrid_has_no_lot_probe(self):
        simulation = Simulation(small(Technique.HYBRID, sizes=(12, 12)))
        assert "lot_entries" not in simulation.sampler.series


class TestExecution:
    def test_run_is_complete_and_collected(self):
        result = Simulation(small()).run()
        assert result.transactions_begun == 200
        assert result.events_executed > 0
        assert result.wall_seconds > 0
        assert len(result.generations) == 2

    def test_start_is_idempotent(self):
        simulation = Simulation(small())
        simulation.start()
        simulation.start()
        result = simulation.run()
        assert result.transactions_begun == 200

    def test_run_until_then_capture(self):
        simulation = Simulation(small(collect_truth=True))
        simulation.run_until(5.0)
        images = simulation.capture_durable_log()
        stable = simulation.capture_stable_database()
        assert images, "some blocks must be durable after 5 s"
        assert all(image.write_lsn is not None for image in images)
        assert isinstance(stable, dict)

    def test_capture_works_for_hybrid(self):
        simulation = Simulation(small(Technique.HYBRID, sizes=(12, 12)))
        simulation.run_until(5.0)
        assert simulation.capture_durable_log()

    def test_infeasible_configuration_reports_failed(self):
        # A log too small for even one long transaction's records: the
        # manager raises LogFullError, which the harness converts into a
        # failed result instead of crashing the sweep.
        config = small(
            sizes=(3, 3),
            long_fraction=1.0,
            arrival_rate=50.0,
            payload_bytes=200,
            recirculation=True,
        )
        result = run_simulation(config)
        assert result.failed is not None or result.transactions_killed > 0
        assert not result.no_kills

    def test_unfinished_transactions_counted(self):
        result = Simulation(small(long_fraction=1.0)).run()
        # 10-second transactions in a 10-second run: most never finish.
        assert result.transactions_unfinished > 0


FLUSH_FAULTS = FaultPlan(flush_fault_rate=0.2, max_retries=0)

#: Per flush drive at the 60 s paper points: (writes, seek distance total,
#: seek samples).
PAPER_POINT_DRIVES = [
    (1174, 261384051, 1173), (1262, 269002051, 1261), (1203, 262706396, 1202),
    (1269, 268630293, 1268), (1197, 263167744, 1196), (1193, 258827627, 1192),
    (1227, 270503832, 1226), (1199, 265710808, 1198), (1256, 260886476, 1255),
    (1215, 271062242, 1214),
]
FLUSH_FAULT_DRIVES = [
    (1173, 227764902, 1172), (1262, 233042955, 1261), (1203, 224426371, 1202),
    (1268, 242752991, 1267), (1197, 225944200, 1196), (1193, 223247589, 1192),
    (1227, 239575218, 1226), (1199, 230727591, 1198), (1255, 229212819, 1254),
    (1215, 245590174, 1214),
]


def _drive_totals(simulation) -> list:
    return [
        (d.stats.writes, d.stats.seek_distance_total, d.stats.seek_samples)
        for d in simulation.manager.scheduler.drives
    ]


class TestPaperPointPins:
    """The paper points at 60 simulated seconds, pinned value for value.

    Any change to the engine, workload or flush path that reorders or
    drops an event moves at least one of these numbers.
    """

    @pytest.mark.parametrize(
        "config, events, bandwidth",
        [
            (
                SimulationConfig.ephemeral((18, 16), recirculation=True, long_fraction=0.05,
                                           runtime=60.0, collect_truth=True),
                37275,
                12.633333333333333,
            ),
            (
                SimulationConfig.firewall(123, long_fraction=0.05, runtime=60.0,
                                          collect_truth=True),
                37203,
                11.433333333333334,
            ),
        ],
        ids=["el-18-16", "fw-123"],
    )
    def test_paper_point_is_unchanged(self, config, events, bandwidth):
        simulation = Simulation(config)
        result = simulation.run()
        acked = "\n".join(repr(tuple(u)) for u in simulation.generator.acked_updates)
        assert result.events_executed == events
        assert result.total_bandwidth_wps == bandwidth
        assert result.mean_commit_latency == 0.06274289869950855
        assert len(simulation.generator.acked_updates) == 12198
        assert hashlib.sha256(acked.encode()).hexdigest() == (
            "3095bf2ff401363d4482dfce1bcb616e3302e2f9ecde4c2a17c137b148f6ee12"
        )
        # The flush layer, drive by drive: both techniques commit the same
        # updates at the same instants, so their flushes match too.
        assert result.flushes_completed == 12195
        assert result.flush_mean_seek_distance == 217634.9216249487
        assert result.flush_peak_backlog == 22
        assert result.demand_flushes == 0
        assert _drive_totals(simulation) == PAPER_POINT_DRIVES

    @pytest.mark.parametrize(
        "config, events",
        [
            (SimulationConfig.ephemeral((18, 16), recirculation=True, long_fraction=0.05,
                                        runtime=60.0, faults=FLUSH_FAULTS), 43343),
            (SimulationConfig.firewall(123, long_fraction=0.05, runtime=60.0,
                                       faults=FLUSH_FAULTS), 43268),
        ],
        ids=["el-18-16", "fw-123"],
    )
    def test_flush_faults_are_unchanged(self, config, events):
        """One in five flush writes fails with no retry: the requeue path."""
        simulation = Simulation(config)
        result = simulation.run()
        scheduler = simulation.manager.scheduler
        assert result.events_executed == events
        assert result.flushes_completed == 12192
        assert scheduler.flush_requeues == 3034
        assert result.flush_peak_backlog == 34
        assert result.flush_mean_seek_distance == 190632.47496306026
        assert result.demand_flushes == 0
        assert _drive_totals(simulation) == FLUSH_FAULT_DRIVES
