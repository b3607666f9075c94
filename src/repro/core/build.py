"""One way to build a log manager from a technique and its sizes.

The simulator, every shard of :class:`~repro.core.sharded.ShardedLogManager`
and the live server all construct their manager here, so a technique's
constructor arguments are spelled out once.  The sharded and hybrid
managers are imported on first use, as only those runs need them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.ephemeral import EphemeralLogManager
from repro.core.firewall import FirewallLogManager
from repro.core.interface import LogManager, UnflushedHeadPolicy
from repro.core.placement import LifetimePlacementPolicy
from repro.errors import ConfigurationError
from repro.faults.injector import NULL_FAULTS, FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry, NULL_METRICS

#: Techniques :func:`build_manager` knows; sharding takes only el and fw.
TECHNIQUES = ("el", "fw", "hybrid")


def build_manager(
    sim,
    database,
    *,
    technique: str,
    generation_sizes: Sequence[int],
    shards: int = 1,
    recirculation: bool = True,
    unflushed_head_policy: UnflushedHeadPolicy = UnflushedHeadPolicy.KEEP_IN_LOG,
    placement_boundaries: Optional[Sequence[float]] = None,
    fault_plan: Optional[FaultPlan] = None,
    rng=None,
    metrics: MetricsRegistry = NULL_METRICS,
    **shared,
) -> LogManager:
    """The manager for ``technique`` on ``sim`` and ``database``.

    ``generation_sizes`` are EL's generations, the hybrid's queues, or
    (first entry) FW's one log.  ``shards > 1`` builds a sharded log whose
    shards come back through this function.  An enabled ``fault_plan``
    gets an injector drawing from ``rng`` (per shard, from its own
    substreams).  ``shared`` passes the remaining keyword arguments every
    manager takes: flush drives and write time, block and buffer sizes,
    gap, log write time, kill policy, trace, and for a shard its LSN
    factory and flush span.
    """
    if technique not in TECHNIQUES:
        raise ConfigurationError(
            f"technique must be one of {TECHNIQUES}, got {technique!r}"
        )
    if shards > 1:
        from repro.core.sharded import ShardedLogManager

        return ShardedLogManager(
            sim,
            database,
            shard_count=shards,
            technique=technique,
            generation_sizes=tuple(generation_sizes),
            recirculation=recirculation,
            unflushed_head_policy=unflushed_head_policy,
            placement_boundaries=placement_boundaries,
            fault_plan=fault_plan,
            rng=rng,
            metrics=metrics,
            **shared,
        )
    faults = NULL_FAULTS
    if fault_plan is not None and fault_plan.any_enabled:
        if technique == "hybrid":
            # The hybrid manager has no self-healing hooks.
            raise ConfigurationError(
                "fault injection is not supported for the hybrid manager"
            )
        faults = FaultInjector(fault_plan, rng, metrics=metrics)
    if technique == "fw":
        return FirewallLogManager(
            sim,
            database,
            log_blocks=generation_sizes[0],
            faults=faults,
            metrics=metrics,
            **shared,
        )
    if technique == "hybrid":
        from repro.core.hybrid import HybridLogManager

        return HybridLogManager(
            sim, database, queue_sizes=generation_sizes, metrics=metrics, **shared
        )
    placement = None
    if placement_boundaries is not None:
        placement = LifetimePlacementPolicy(placement_boundaries)
    return EphemeralLogManager(
        sim,
        database,
        generation_sizes=tuple(generation_sizes),
        recirculation=recirculation,
        unflushed_head_policy=unflushed_head_policy,
        placement=placement,
        faults=faults,
        metrics=metrics,
        **shared,
    )
