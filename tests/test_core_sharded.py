"""Tests for the sharded multi-disk log manager.

Covers the transaction→shard router, the cross-shard group-commit vote
table (a multi-shard transaction must not acknowledge before its slowest
shard's COMMIT record is durable), kill/abort propagation, the aggregate
introspection facades, and the shards=1 byte-identity contract against
the single-disk managers.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.sharded import ShardedLogManager
from repro.db.database import StableDatabase
from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import FaultPlan
from repro.harness.config import SimulationConfig, Technique
from repro.harness.simulator import Simulation, run_simulation
from repro.obs.events import EventStream
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator


class ShardedHarness:
    """A two-shard manager wired for hand-driven tests.

    1000 objects over 2 shards: oids [0, 500) live on shard 0 and
    [500, 1000) on shard 1.
    """

    def __init__(self, technique: str = "el", shard_count: int = 2, **kwargs):
        self.sim = Simulator()
        self.database = StableDatabase(1000)
        sizes = (8,) if technique == "fw" else (8, 8)
        self.manager = ShardedLogManager(
            self.sim,
            self.database,
            shard_count=shard_count,
            technique=technique,
            generation_sizes=sizes,
            flush_drives=2,
            flush_write_seconds=0.005,
            payload_bytes=400,
            **kwargs,
        )
        self.acks: list[tuple[int, float]] = []
        self.kills: list[tuple[int, float]] = []
        self.manager.on_kill = lambda tid, t: self.kills.append((tid, t))
        self._tid = itertools.count(1)
        self._value = itertools.count(100)

    def begin(self, expected_lifetime=None) -> int:
        tid = next(self._tid)
        self.manager.begin(tid, expected_lifetime=expected_lifetime)
        return tid

    def update(self, tid: int, oid: int, size: int = 100) -> int:
        value = next(self._value)
        self.manager.log_update(tid, oid, value, size)
        return value

    def commit(self, tid: int) -> None:
        self.manager.request_commit(tid, lambda t, when: self.acks.append((t, when)))

    def settle(self, seconds: float = 1.0) -> None:
        self.sim.run_until(self.sim.now + seconds)

    def acked(self, tid: int) -> bool:
        return any(t == tid for t, _ in self.acks)

    def ack_time(self, tid: int) -> float:
        return next(when for t, when in self.acks if t == tid)


@pytest.fixture
def sharded() -> ShardedHarness:
    return ShardedHarness()


class TestRouting:
    def test_updates_route_to_the_owning_shard(self, sharded):
        tid = sharded.begin()
        sharded.update(tid, oid=10)
        sharded.update(tid, oid=900)
        shard0, shard1 = sharded.manager.shards
        assert 10 in shard0.lot and 10 not in shard1.lot
        assert 900 in shard1.lot and 900 not in shard0.lot

    def test_begin_is_lazy_per_shard(self, sharded):
        tid = sharded.begin()
        shard0, shard1 = sharded.manager.shards
        assert tid not in shard0.ltt and tid not in shard1.ltt
        sharded.update(tid, oid=10)
        assert tid in shard0.ltt and tid not in shard1.ltt

    def test_lsns_are_globally_unique_across_shards(self, sharded):
        tid = sharded.begin()
        for oid in (10, 900, 20, 910):
            sharded.update(tid, oid=oid)
        shard0, shard1 = sharded.manager.shards
        lsns = [
            shard.lot.get(oid).uncommitted_cells[tid].record.lsn
            for shard, oid in (
                (shard0, 10), (shard0, 20), (shard1, 900), (shard1, 910),
            )
        ]
        # All shards draw from one LSN sequence, so recovery's per-LSN
        # dedup can never conflate records from different shards.
        assert len(set(lsns)) == 4

    def test_update_free_commit_uses_a_home_shard(self, sharded):
        tid = sharded.begin()
        sharded.commit(tid)
        home = tid % 2
        assert tid in sharded.manager.shards[home].ltt
        sharded.manager.drain()
        sharded.settle()
        assert sharded.acked(tid)


class TestCrossShardCommit:
    def test_single_shard_tx_keeps_single_disk_latency_path(self, sharded):
        tid = sharded.begin()
        sharded.update(tid, oid=10)
        sharded.commit(tid)
        assert sharded.manager.single_shard_commits == 1
        assert sharded.manager.cross_shard_commits == 0
        sharded.manager.shards[0].drain()
        sharded.settle(0.1)
        assert sharded.acked(tid)

    def test_cross_shard_ack_waits_for_slowest_shard(self, sharded):
        tid = sharded.begin()
        sharded.update(tid, oid=10)     # shard 0
        sharded.update(tid, oid=900)    # shard 1
        sharded.commit(tid)
        assert sharded.manager.cross_shard_commits == 1

        # Shard 0's COMMIT becomes durable; shard 1's stays buffered.
        sharded.manager.shards[0].drain()
        sharded.settle(0.5)
        assert not sharded.acked(tid), "acked before the slowest shard flushed"

        blocked_until = sharded.sim.now
        sharded.manager.shards[1].drain()
        sharded.settle(0.5)
        assert sharded.acked(tid)
        assert sharded.ack_time(tid) > blocked_until

    def test_ack_fires_exactly_once(self, sharded):
        tid = sharded.begin()
        sharded.update(tid, oid=10)
        sharded.update(tid, oid=900)
        sharded.commit(tid)
        sharded.manager.drain()
        sharded.settle()
        assert [t for t, _ in sharded.acks].count(tid) == 1
        assert sharded.manager.committed_count == 1

    def test_commit_requires_begin(self, sharded):
        with pytest.raises(SimulationError):
            sharded.manager.request_commit(99, lambda t, w: None)

    def test_double_commit_rejected(self, sharded):
        tid = sharded.begin()
        sharded.update(tid, oid=10)
        sharded.commit(tid)
        with pytest.raises(SimulationError):
            sharded.commit(tid)


class TestAbortAndKill:
    def test_abort_propagates_to_every_touched_shard(self, sharded):
        tid = sharded.begin()
        sharded.update(tid, oid=10)
        sharded.update(tid, oid=900)
        sharded.manager.abort(tid)
        assert sharded.manager.aborted_count == 1
        assert sharded.manager.shards[0].aborted_count == 1
        assert sharded.manager.shards[1].aborted_count == 1
        with pytest.raises(SimulationError):
            sharded.manager.abort(tid)

    def test_abort_during_commit_rejected(self, sharded):
        tid = sharded.begin()
        sharded.update(tid, oid=10)
        sharded.commit(tid)
        with pytest.raises(SimulationError):
            sharded.manager.abort(tid)

    def test_kills_surface_once_and_clean_the_vote_table(self):
        # FW at the paper point kills its long transactions by design;
        # run a real sharded workload and check the kill bookkeeping.
        config = SimulationConfig.firewall(
            34, runtime=25.0, arrival_rate=200.0, shards=2
        )
        simulation = Simulation(config)
        manager = simulation.manager
        killed = []
        workload_on_kill = manager.on_kill

        def record_kill(tid, when):
            killed.append(tid)
            workload_on_kill(tid, when)

        manager.on_kill = record_kill
        result = simulation.run()
        assert result.transactions_killed > 0
        assert manager.kill_count == result.transactions_killed
        assert len(killed) == manager.kill_count
        assert len(set(killed)) == manager.kill_count
        for tid in killed:
            assert tid not in manager._txes
        manager.check_invariants()


class TestAggregateViews:
    def test_registry_reports_the_commit_and_each_shards_part(self):
        metrics = MetricsRegistry(enabled=True)
        harness = ShardedHarness(metrics=metrics)
        tid = harness.begin()
        harness.update(tid, oid=10)
        harness.update(tid, oid=900)
        harness.commit(tid)
        harness.manager.drain()
        harness.settle()
        assert metrics.get("shard.committed").value == 1
        assert metrics.get("shard.cross_shard_commits").value == 1
        for index in range(2):
            assert metrics.get(f"s{index}.el.committed").value == 1
        assert harness.manager.fresh_records == sum(
            s.fresh_records for s in harness.manager.shards
        )

    def test_flush_view_sums_schedulers(self, sharded):
        tid = sharded.begin()
        sharded.update(tid, oid=10)
        sharded.update(tid, oid=900)
        sharded.commit(tid)
        sharded.manager.drain()
        sharded.settle()
        view = sharded.manager.scheduler
        assert view.completed == sum(
            s.scheduler.completed for s in sharded.manager.shards
        )
        assert view.completed >= 2  # both updates flushed
        assert len(view.drives) == 4  # 2 drives per shard

    def test_memory_and_capacity_sum_over_shards(self, sharded):
        manager = sharded.manager
        assert manager.total_log_capacity() == sum(
            s.total_log_capacity() for s in manager.shards
        )
        assert len(manager.generations) == 4  # 2 shards x 2 generations

    def test_per_shard_metrics_are_prefixed(self):
        metrics = MetricsRegistry(enabled=True)
        harness = ShardedHarness(metrics=metrics)
        shard0, shard1 = harness.manager.shards
        assert "el.forwarded" not in metrics.names()
        tid = harness.begin()
        harness.update(tid, oid=1)  # oid 1 lives on shard 0 only
        harness.commit(tid)
        harness.manager.drain()
        harness.settle()
        assert metrics.get("s0.flush.submitted").value == 1
        assert metrics.get("s1.flush.submitted").value == 0
        for index, shard in enumerate((shard0, shard1)):
            assert metrics.get(f"s{index}.el.forwarded").value == shard.forwarded_records
            assert (
                metrics.get(f"s{index}.log.gen0.blocks_written").value
                == shard.generations[0].blocks_written
            )
        assert shard0.generations[0].blocks_written > 0

    def test_trace_events_carry_the_shard_index(self):
        trace = EventStream(enabled=True)
        harness = ShardedHarness(trace=trace)
        tid = harness.begin()
        harness.update(tid, oid=10)
        harness.update(tid, oid=900)
        harness.commit(tid)
        harness.manager.drain()
        harness.settle()
        events = list(trace)
        assert events
        cross = [e for e in events if e.source == "shard"]
        assert cross and cross[0].kind == "cross_commit"
        assert cross[0].detail["shards"] == [0, 1]
        for event in events:
            if event.source in ("el", "log", "flush"):
                assert event.detail["shard"] in (0, 1)


class TestConfigAndValidation:
    def test_constructor_validation(self):
        sim = Simulator()
        database = StableDatabase(100)
        with pytest.raises(ConfigurationError):
            ShardedLogManager(
                sim, database, shard_count=0, technique="el",
                generation_sizes=(8, 8),
            )
        with pytest.raises(ConfigurationError):
            ShardedLogManager(
                sim, database, shard_count=2, technique="hybrid",
                generation_sizes=(8, 8),
            )

    def test_config_rejects_bad_shards(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(shards=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(technique=Technique.HYBRID, shards=2)
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_objects=2, shards=3)

    def test_default_shards_stay_out_of_the_fingerprint(self):
        default = SimulationConfig()
        assert "shards" not in default.fingerprint_payload()
        assert SimulationConfig(shards=1).fingerprint() == default.fingerprint()

    def test_shards_join_the_fingerprint(self):
        base = SimulationConfig()
        sharded = SimulationConfig(shards=2)
        assert sharded.fingerprint_payload()["shards"] == 2
        assert sharded.fingerprint() != base.fingerprint()
        assert (
            SimulationConfig(shards=2).fingerprint()
            != SimulationConfig(shards=4).fingerprint()
        )


class _ForcedShardedSimulation(Simulation):
    """Builds a 1-shard ShardedLogManager regardless of config.shards."""

    def _build_manager(self):
        config = self.config
        return ShardedLogManager(
            self.sim,
            self.database,
            shard_count=1,
            technique=config.technique.value,
            generation_sizes=config.generation_sizes,
            recirculation=config.recirculation,
            flush_drives=config.flush_drives,
            flush_write_seconds=config.flush_write_seconds,
            payload_bytes=config.payload_bytes,
            buffer_count=config.buffer_count,
            gap_blocks=config.gap_blocks,
            log_write_seconds=config.log_write_seconds,
            unflushed_head_policy=config.unflushed_head_policy,
            kill_policy=config.kill_policy,
            placement_boundaries=config.placement_boundaries,
            trace=self.obs.trace,
            metrics=self.obs.metrics,
        )


class TestSingleShardIdentity:
    """shards=1 is the null object: byte-identical to the plain managers."""

    @pytest.mark.parametrize(
        "config",
        [
            SimulationConfig.ephemeral((18, 16), runtime=30.0),
            SimulationConfig.firewall(34, runtime=30.0),
        ],
        ids=["el-paper-point", "fw-paper-point"],
    )
    def test_byte_identical_to_plain_manager(self, config):
        plain = run_simulation(config).to_dict()
        forced = _ForcedShardedSimulation(config).run().to_dict()
        plain.pop("wall_seconds")
        forced.pop("wall_seconds")
        assert forced == plain

    def test_config_shards_1_uses_the_plain_manager(self):
        simulation = Simulation(SimulationConfig.ephemeral((18, 16), runtime=5.0))
        assert not isinstance(simulation.manager, ShardedLogManager)

    def test_config_shards_2_uses_the_sharded_manager(self):
        simulation = Simulation(
            SimulationConfig.ephemeral((18, 16), runtime=5.0, shards=2)
        )
        assert isinstance(simulation.manager, ShardedLogManager)
        assert simulation.manager.shard_count == 2


class TestShardedFaults:
    def test_fault_substreams_are_deterministic_per_seed(self):
        plan = FaultPlan(
            transient_write_rate=0.1,
            torn_write_rate=0.05,
            latent_error_rate=0.01,
            flush_fault_rate=0.1,
        )
        config = SimulationConfig.ephemeral(
            (18, 16), runtime=20.0, shards=2, faults=plan
        )

        def run_once():
            simulation = Simulation(config)
            result = simulation.run()
            return result.to_dict(), simulation.faults.counters_snapshot()

        first_result, first_counters = run_once()
        second_result, second_counters = run_once()
        first_result.pop("wall_seconds")
        second_result.pop("wall_seconds")
        assert first_result == second_result
        assert first_counters == second_counters
        assert sum(first_counters.values()) > 0

    def test_fault_report_has_the_chaos_keys(self):
        plan = FaultPlan(
            transient_write_rate=0.1,
            torn_write_rate=0.05,
            latent_error_rate=0.01,
            flush_fault_rate=0.1,
        )
        config = SimulationConfig.ephemeral(
            (18, 16), runtime=15.0, shards=2, faults=plan
        )
        result = Simulation(config).run()
        assert result.faults is not None
        for key in (
            "write_faults", "write_retries", "failed_writes", "blocks_retired",
            "records_healed", "records_stabilised", "deferred_acks",
            "outstanding_holds", "flush_requeues",
        ):
            assert key in result.faults, key
        assert "injected" in result.faults

    def test_enabled_plan_requires_an_rng(self):
        plan = FaultPlan(transient_write_rate=0.1)
        with pytest.raises(ConfigurationError):
            ShardedLogManager(
                Simulator(), StableDatabase(100), shard_count=2,
                technique="el", generation_sizes=(8, 8), fault_plan=plan,
            )
