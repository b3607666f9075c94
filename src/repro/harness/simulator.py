"""Wires a configuration into a runnable simulation.

One :class:`Simulation` owns the event engine, the stable database, a log
manager (EL, FW or hybrid), the workload generator and a periodic sampler,
and produces a :class:`~repro.harness.results.SimulationResult`.  It also
exposes crash-state capture for the recovery experiments.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.core.ephemeral import EphemeralLogManager
from repro.core.firewall import FirewallLogManager
from repro.core.placement import LifetimePlacementPolicy
from repro.db.database import StableDatabase
from repro.db.objects import ObjectVersion
from repro.disk.block import BlockImage
from repro.errors import LogFullError
from repro.faults.injector import NULL_FAULTS, FaultInjector
from repro.harness.config import SimulationConfig, Technique
from repro.harness.results import GenerationResult, SimulationResult
from repro.metrics.series import PeriodicSampler
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.workload.arrivals import PoissonArrivals
from repro.workload.generator import WorkloadGenerator

if TYPE_CHECKING:
    from repro.core.hybrid import HybridLogManager
    from repro.core.sharded import ShardedLogManager
    from repro.obs.manifest import RunManifest


class Simulation:
    """A fully wired simulation, ready to run."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.sim = Simulator()
        self.rng = SimRng(config.seed)
        self.database = StableDatabase(config.num_objects)
        self.obs = Observability(config.obs)
        self.manifest: Optional[RunManifest] = None
        if config.shards > 1:
            # The sharded manager builds one injector per shard from the
            # plan (substreams keyed ``shard{i}/...``); ``self.faults``
            # becomes its aggregate view after construction.
            self.faults = NULL_FAULTS
        elif config.faults is not None and config.faults.any_enabled:
            self.faults = FaultInjector(
                config.faults, self.rng, metrics=self.obs.metrics
            )
        else:
            self.faults = NULL_FAULTS
        self.manager = self._build_manager()
        if config.shards > 1:
            self.faults = self.manager.faults
        self.generator = WorkloadGenerator(
            self.sim,
            self.manager,
            config.workload_mix(),
            arrival_rate=config.arrival_rate,
            runtime=config.runtime,
            rng=self.rng,
            num_objects=config.num_objects,
            arrivals=(
                PoissonArrivals(config.arrival_rate)
                if config.poisson_arrivals
                else None
            ),
            epsilon=config.epsilon,
            lifetime_hints=config.placement_boundaries is not None,
            collect_truth=config.collect_truth,
            skew=config.skew,
        )
        self.sampler = PeriodicSampler(self.sim, config.sample_period)
        self.sampler.add_probe("memory_bytes", self.manager.memory_bytes)
        self.sampler.add_probe("flush_backlog", self._flush_backlog)
        if hasattr(self.manager, "lot"):
            self.sampler.add_probe("lot_entries", lambda: len(self.manager.lot))
            self.sampler.add_probe("ltt_entries", lambda: len(self.manager.ltt))
        if self.obs.metrics.enabled:
            # Engine-side series the paper-style results never needed but
            # perf work does: event-heap depth over time.
            self.sampler.add_probe(
                "heap_depth", lambda: float(self.sim.pending_events)
            )
        self._started = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_manager(
        self,
    ) -> Union[EphemeralLogManager, HybridLogManager, ShardedLogManager]:
        config = self.config
        common = dict(
            flush_drives=config.flush_drives,
            flush_write_seconds=config.flush_write_seconds,
            payload_bytes=config.payload_bytes,
            buffer_count=config.buffer_count,
            gap_blocks=config.gap_blocks,
            log_write_seconds=config.log_write_seconds,
            kill_policy=config.kill_policy,
            trace=self.obs.trace,
            metrics=self.obs.metrics,
        )
        if config.shards > 1:
            # config.__post_init__ restricts shards > 1 to el/fw.
            from repro.core.sharded import ShardedLogManager

            return ShardedLogManager(
                self.sim,
                self.database,
                shard_count=config.shards,
                technique=config.technique.value,
                generation_sizes=config.generation_sizes,
                recirculation=config.recirculation,
                unflushed_head_policy=config.unflushed_head_policy,
                placement_boundaries=config.placement_boundaries,
                fault_plan=config.faults,
                rng=self.rng,
                **common,
            )
        if config.technique is Technique.FIREWALL:
            return FirewallLogManager(
                self.sim,
                self.database,
                log_blocks=config.generation_sizes[0],
                faults=self.faults,
                **common,
            )
        if config.technique is Technique.HYBRID:
            # config.__post_init__ rejects hybrid + an enabled fault plan;
            # the hybrid manager has no self-healing hooks.
            from repro.core.hybrid import HybridLogManager

            return HybridLogManager(
                self.sim,
                self.database,
                queue_sizes=config.generation_sizes,
                **common,
            )
        placement = None
        if config.placement_boundaries is not None:
            placement = LifetimePlacementPolicy(config.placement_boundaries)
        return EphemeralLogManager(
            self.sim,
            self.database,
            generation_sizes=config.generation_sizes,
            recirculation=config.recirculation,
            unflushed_head_policy=config.unflushed_head_policy,
            placement=placement,
            faults=self.faults,
            **common,
        )

    def _flush_backlog(self) -> float:
        return float(self.manager.scheduler.backlog())

    def _manager_counters(self, result: SimulationResult) -> dict:
        """Manifest counter block: manager counters plus the drive view."""
        manager = self.manager
        if hasattr(manager, "counters_snapshot"):
            counters = manager.counters_snapshot()
        else:  # the hybrid manager keeps a reduced counter set
            counters = {
                "begun": getattr(manager, "begun_count", 0),
                "committed": getattr(manager, "committed_count", 0),
                "kills": getattr(manager, "kill_count", 0),
                "regenerated_records": getattr(manager, "regenerated_records", 0),
                "blocks_written_by_generation": [
                    q.blocks_written for q in manager.queues
                ],
                "flush": manager.scheduler.counters_snapshot(),
            }
        elapsed = max(self.sim.now, 1e-9)
        counters["drives"] = manager.scheduler.drive_report(elapsed)
        counters["transactions_killed"] = result.transactions_killed
        counters["events_executed"] = result.events_executed
        return counters

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the workload and sampler (idempotent)."""
        if self._started:
            return
        self._started = True
        self.generator.start()
        self.sampler.start()

    def run(self) -> SimulationResult:
        """Run the configured time span and collect the result.

        When observability is configured this also closes any JSONL sink
        and, if a manifest path is set, writes the run manifest
        (:attr:`manifest` keeps the written document).
        """
        self.start()
        self.obs.trace.emit(
            self.sim.now,
            "run",
            "begin",
            {"technique": self.config.technique.value, "seed": self.config.seed},
        )
        started_wall = time.perf_counter()
        failed: Optional[str] = None
        try:
            self.sim.run_until(self.config.runtime)
        except LogFullError as exc:
            # The configuration is infeasible even with kills; report it as
            # a failed run rather than crashing the sweep.
            failed = str(exc)
        wall = time.perf_counter() - started_wall
        self.generator.finish()
        result = self._collect(wall, failed)
        self.obs.trace.emit(
            self.sim.now,
            "run",
            "end",
            {"failed": failed, "committed": result.transactions_committed},
        )
        self.manifest = self.obs.finalise(
            label=self.config.technique.value,
            seed=self.config.seed,
            config=self.config.to_json_dict(),
            sim=self.sim.snapshot(),
            counters=self._manager_counters(result),
            wall_seconds=wall,
        )
        return result

    def run_until(self, when: float) -> None:
        """Advance the simulation to an intermediate instant (crash studies)."""
        self.start()
        self.sim.run_until(when)

    # ------------------------------------------------------------------
    # Crash-state capture (recovery experiments)
    # ------------------------------------------------------------------
    def capture_durable_log(self) -> List[BlockImage]:
        """Block images durably on disk right now."""
        queues = getattr(self.manager, "generations", None)
        if queues is None:
            queues = self.manager.queues  # hybrid
        images: List[BlockImage] = []
        for queue in queues:
            images.extend(queue.durable.values())
        return images

    def capture_stable_database(self) -> Dict[int, ObjectVersion]:
        """Snapshot of the stable database right now."""
        return self.database.snapshot()

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------
    def _collect(self, wall: float, failed: Optional[str]) -> SimulationResult:
        config = self.config
        manager = self.manager
        stats = self.generator.stats
        elapsed = max(self.sim.now, 1e-9)
        queues = getattr(manager, "generations", None)
        if queues is None:
            queues = manager.queues

        result = SimulationResult(
            technique=config.technique.value,
            generation_sizes=list(config.generation_sizes),
            recirculation=config.recirculation,
            long_fraction=config.long_fraction,
            runtime=config.runtime,
            seed=config.seed,
            flush_write_seconds=config.flush_write_seconds,
            transactions_begun=stats.begun,
            transactions_committed=stats.committed,
            transactions_killed=stats.killed,
            transactions_unfinished=stats.unfinished,
            updates_written=stats.updates_written,
            mean_commit_latency=stats.mean_commit_latency,
            max_commit_latency=stats.commit_latency_max,
            fresh_records=getattr(manager, "fresh_records", 0),
            forwarded_records=getattr(manager, "forwarded_records", 0),
            recirculated_records=getattr(manager, "recirculated_records", 0),
            regenerated_records=getattr(manager, "regenerated_records", 0),
            garbage_copies_discarded=getattr(manager, "garbage_copies_discarded", 0),
            flushes_completed=manager.scheduler.completed,
            demand_flushes=manager.scheduler.demand_flushes,
            flush_peak_backlog=manager.scheduler.peak_backlog,
            flush_mean_seek_distance=manager.scheduler.mean_seek_distance(),
            events_executed=self.sim.events_executed,
            wall_seconds=wall,
            failed=failed,
        )
        if self.faults.enabled:
            summary = {"injected": self.faults.counters_snapshot()}
            if hasattr(manager, "fault_report"):
                summary.update(manager.fault_report())
            result.faults = summary
        if config.shards > 1:
            result.sharding = {
                "single_shard_commits": manager.single_shard_commits,
                "cross_shard_commits": manager.cross_shard_commits,
            }
        memory = self.sampler.series["memory_bytes"]
        result.memory_peak_bytes = int(memory.maximum)
        result.memory_mean_bytes = memory.mean
        if "lot_entries" in self.sampler.series:
            result.lot_peak_entries = int(self.sampler.series["lot_entries"].maximum)
            result.ltt_peak_entries = int(self.sampler.series["ltt_entries"].maximum)
        for queue in queues:
            result.generations.append(
                GenerationResult(
                    capacity_blocks=queue.capacity,
                    blocks_written=queue.blocks_written,
                    bytes_written=queue.bytes_written,
                    peak_used_blocks=queue.peak_used,
                    bandwidth_wps=queue.blocks_written / elapsed,
                    buffer_peak_in_use=queue.pool.peak_in_use,
                    buffer_overdrafts=queue.pool.overdrafts,
                )
            )
        return result


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Build and run one simulation (the main library entry point)."""
    return Simulation(config).run()
