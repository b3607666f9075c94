"""Simulation configuration.

Mirrors the paper's simulator inputs ("pdf, rate of transaction initiation,
flush rate, generations, recirculation, runtime") plus this library's policy
knobs, with the paper's fixed parameters as defaults.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro import constants
from repro.core.interface import UnflushedHeadPolicy
from repro.core.killpolicy import KillPolicy
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.obs import ObsConfig
from repro.workload.spec import SkewSpec, WorkloadMix, paper_mix


class Technique(enum.Enum):
    """Which log manager a simulation runs."""

    EPHEMERAL = "el"
    FIREWALL = "fw"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run.

    The default values are the paper's fixed parameters (§3); experiment
    drivers override only what each figure varies.
    """

    technique: Technique = Technique.EPHEMERAL
    #: Blocks per generation, youngest first.  For FW this must have one entry.
    generation_sizes: Tuple[int, ...] = (18, 16)
    recirculation: bool = True
    #: Fraction of 10 s transactions if ``mix`` is not given explicitly.
    long_fraction: float = 0.05
    mix: Optional[WorkloadMix] = None
    arrival_rate: float = constants.ARRIVAL_RATE_TPS
    runtime: float = constants.RUNTIME_SECONDS
    seed: int = 0

    num_objects: int = constants.NUM_OBJECTS
    flush_drives: int = constants.FLUSH_DRIVES
    flush_write_seconds: float = constants.FLUSH_WRITE_SECONDS
    #: Independent log shards, each a complete EL chain or FW log on its
    #: own disk; updates are range-routed by object id and cross-shard
    #: transactions commit via a per-shard vote table.  ``1`` is the
    #: null-object default: the single-disk managers run unchanged (and,
    #: being the default, the field is omitted from old fingerprints).
    shards: int = 1

    payload_bytes: int = constants.BLOCK_PAYLOAD_BYTES
    buffer_count: int = constants.BUFFERS_PER_GENERATION
    gap_blocks: int = constants.GAP_THRESHOLD_BLOCKS
    log_write_seconds: float = constants.LOG_WRITE_SECONDS
    epsilon: float = constants.EPSILON_SECONDS

    unflushed_head_policy: UnflushedHeadPolicy = UnflushedHeadPolicy.KEEP_IN_LOG
    kill_policy: KillPolicy = KillPolicy.BLOCKING
    #: Lifetime boundaries for the placement extension; ``None`` disables it.
    placement_boundaries: Optional[Tuple[float, ...]] = None
    poisson_arrivals: bool = False

    sample_period: float = 0.5
    collect_truth: bool = False
    #: Observability switches (tracing, metrics, JSONL export, manifest);
    #: ``None`` means everything off — the zero-overhead default.
    obs: Optional[ObsConfig] = None
    #: Fault-injection plan; ``None`` means perfect hardware.  Unlike
    #: ``obs``, a plan that injects anything *does* change simulated
    #: behaviour and is therefore part of the fingerprint (the default
    #: ``None`` is omitted, so pre-fault fingerprints are unchanged).
    faults: Optional[FaultPlan] = None
    #: Hot-set access skew for oid selection; ``None`` keeps the paper's
    #: uniform draw byte-identical (and, being the default, omitted from
    #: old fingerprints).
    skew: Optional[SkewSpec] = None
    #: End the run at its first kill (the minimum-space searches set it:
    #: one kill rejects a size, so the rest of the span decides nothing).
    #: Non-default, it enters the fingerprint, so a stopped result never
    #: stands in for a full run in the caches.
    stop_at_first_kill: bool = False

    def __post_init__(self) -> None:
        if not self.generation_sizes:
            raise ConfigurationError("generation_sizes must not be empty")
        if self.technique is Technique.FIREWALL and len(self.generation_sizes) != 1:
            raise ConfigurationError(
                "firewall logging uses a single queue; got sizes "
                f"{self.generation_sizes}"
            )
        if self.technique is Technique.FIREWALL and self.recirculation:
            raise ConfigurationError("firewall logging never recirculates")
        if any(s < self.gap_blocks + 1 for s in self.generation_sizes):
            raise ConfigurationError(
                f"every generation needs more than gap={self.gap_blocks} blocks"
            )
        if self.runtime <= 0:
            raise ConfigurationError("runtime must be positive")
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if self.sample_period <= 0:
            raise ConfigurationError("sample_period must be positive")
        if (
            self.faults is not None
            and self.faults.any_enabled
            and self.technique is Technique.HYBRID
        ):
            raise ConfigurationError(
                "fault injection is not supported for the hybrid manager "
                "(it has no detection/self-healing hooks)"
            )
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.shards > 1 and self.technique is Technique.HYBRID:
            raise ConfigurationError(
                "sharding supports the el and fw techniques, not hybrid"
            )
        if self.shards > self.num_objects:
            raise ConfigurationError(
                f"cannot range-partition {self.num_objects} objects over "
                f"{self.shards} shards"
            )

    def to_json_dict(self) -> dict:
        """JSON-ready dict of every field (the run-manifest config block)."""

        def sanitise(value):
            if isinstance(value, enum.Enum):
                return value.value
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                return {
                    key: sanitise(item)
                    for key, item in dataclasses.asdict(value).items()
                }
            if isinstance(value, (list, tuple)):
                return [sanitise(item) for item in value]
            if isinstance(value, dict):
                return {str(key): sanitise(item) for key, item in value.items()}
            if value is None or isinstance(value, (bool, int, float, str)):
                return value
            return repr(value)

        return {
            field.name: sanitise(getattr(self, field.name))
            for field in dataclasses.fields(self)
        }

    def fingerprint_payload(self) -> dict:
        """The canonical dict the config fingerprint is computed from.

        Contains every field that can change a simulation's outcome, and
        *only* those whose value differs from the dataclass default.
        Omitting default-valued fields keeps fingerprints stable when a new
        defaulted knob is added later; changing an existing default changes
        run semantics and must be accompanied by a
        :data:`~repro.harness.sweep.CACHE_VERSION` bump.  ``obs`` is always
        excluded: observability never alters simulated behaviour.
        """
        data = self.to_json_dict()
        data.pop("obs", None)
        defaults = _default_fingerprint_payload()
        return {
            key: value
            for key, value in data.items()
            if key not in defaults or defaults[key] != value
        }

    def fingerprint(self) -> str:
        """Stable 16-hex-char digest of this configuration.

        Two configs share a fingerprint iff a run of one is exchangeable
        for a run of the other (same technique, sizes, workload, seed, ...).
        Used to key the per-run sweep cache and to dedupe parallel batches.
        """
        blob = json.dumps(
            self.fingerprint_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def workload_mix(self) -> WorkloadMix:
        """The explicit mix, or the paper's two-type mix at ``long_fraction``."""
        if self.mix is not None:
            return self.mix
        return paper_mix(self.long_fraction)

    @property
    def total_blocks(self) -> int:
        return sum(self.generation_sizes)

    def replace(self, **changes) -> "SimulationConfig":
        """A modified copy (thin wrapper over :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def firewall(cls, log_blocks: int, **kwargs) -> "SimulationConfig":
        """Convenience constructor for a firewall run."""
        return cls(
            technique=Technique.FIREWALL,
            generation_sizes=(log_blocks,),
            recirculation=False,
            **kwargs,
        )

    @classmethod
    def ephemeral(
        cls, generation_sizes: Sequence[int], recirculation: bool = True, **kwargs
    ) -> "SimulationConfig":
        """Convenience constructor for an EL run."""
        return cls(
            technique=Technique.EPHEMERAL,
            generation_sizes=tuple(generation_sizes),
            recirculation=recirculation,
            **kwargs,
        )


_DEFAULT_PAYLOAD: Optional[dict] = None


def _default_fingerprint_payload() -> dict:
    """JSON view of an all-default config, computed once per process."""
    global _DEFAULT_PAYLOAD
    if _DEFAULT_PAYLOAD is None:
        _DEFAULT_PAYLOAD = SimulationConfig().to_json_dict()
    return _DEFAULT_PAYLOAD
