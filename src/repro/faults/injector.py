"""Per-run fault injector: turns a :class:`FaultPlan` into concrete draws.

The injector owns three dedicated RNG streams derived from the run seed
(``faults/log-write``, ``faults/latent``, ``faults/flush``), so fault
draws are reproducible per seed+plan and never perturb the workload
streams.  Components consult the injector's ``injects_*`` flags before
drawing; when no plan is configured they hold :data:`NULL_FAULTS`, whose
flags are all ``False``, making the fault layer a handful of attribute
checks on the hot path and nothing more.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FaultKind, FaultPlan
from repro.obs.metrics import NULL_METRICS, MetricsRegistry


class FaultInjector:
    """Draws faults per the plan from dedicated seeded streams."""

    enabled = True

    def __init__(
        self,
        plan: FaultPlan,
        rng,
        metrics: MetricsRegistry = NULL_METRICS,
    ):
        self.plan = plan
        self.injects_log_writes = plan.injects_log_writes
        self.injects_latent = plan.injects_latent
        self.injects_flush = plan.injects_flush
        #: Blocks carry checksums whenever the plan can tear or corrupt
        #: them — which is any enabled plan, including crash-only ones.
        self.checksum_blocks = True
        self._log_write_rng = rng.stream("faults/log-write")
        self._latent_rng = rng.stream("faults/latent")
        self._flush_rng = rng.stream("faults/flush")
        self.transient_writes = 0
        self.torn_writes = 0
        self.latent_errors = 0
        self.flush_faults = 0
        metrics.view("faults.injected.transient_write", lambda: self.transient_writes)
        metrics.view("faults.injected.torn_write", lambda: self.torn_writes)
        metrics.view("faults.injected.latent_error", lambda: self.latent_errors)
        metrics.view("faults.injected.flush_write", lambda: self.flush_faults)

    # ------------------------------------------------------------------
    # Draws — one uniform per decision point, so the stream advances the
    # same way regardless of outcome and runs stay seed-reproducible.
    # ------------------------------------------------------------------
    def log_write_outcome(self, generation: int, slot: int) -> Optional[FaultKind]:
        """Fault (if any) suffered by one log-block write attempt."""
        draw = self._log_write_rng.random()
        plan = self.plan
        if draw < plan.transient_write_rate:
            self.transient_writes += 1
            return FaultKind.TRANSIENT_WRITE
        if draw < plan.transient_write_rate + plan.torn_write_rate:
            self.torn_writes += 1
            return FaultKind.TORN_WRITE
        return None

    def latent_delay(self, generation: int, slot: int) -> Optional[float]:
        """Seconds until a freshly durable block decays, or ``None``."""
        draw = self._latent_rng.random()
        plan = self.plan
        if draw >= plan.latent_error_rate:
            return None
        self.latent_errors += 1
        # Second draw only on the (rare) fault path; deterministic because
        # the fault decision itself consumed exactly one uniform.
        return self._latent_rng.random() * plan.latent_delay_seconds

    def flush_write_fails(self, drive_index: int) -> bool:
        """Whether one stable-database drive write attempt fails."""
        if self._flush_rng.random() >= self.plan.flush_fault_rate:
            return False
        self.flush_faults += 1
        return True

    # ------------------------------------------------------------------
    def counters_snapshot(self) -> dict:
        return {
            "transient_writes": self.transient_writes,
            "torn_writes": self.torn_writes,
            "latent_errors": self.latent_errors,
            "flush_faults": self.flush_faults,
        }


class _NullFaultInjector:
    """No-plan stand-in: all flags off, no streams, no state."""

    enabled = False
    injects_log_writes = False
    injects_latent = False
    injects_flush = False
    checksum_blocks = False
    plan = None

    def counters_snapshot(self) -> dict:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullFaultInjector>"


#: Shared no-op injector for runs without a fault plan.
NULL_FAULTS = _NullFaultInjector()
