"""Unified observability: metrics registry, event pipeline, run manifests.

Three cooperating pieces, all disabled by default so the hot paths stay at
paper speed:

* :mod:`repro.obs.metrics` — named counters and gauges, read from the
  components' own counts at snapshot time, and log-bucketed histograms
  that report percentiles;
* :mod:`repro.obs.events` — the schema'd event stream (in-memory ring,
  optional JSONL export);
* :mod:`repro.obs.manifest` — per-run JSON manifests capturing config,
  seed, code state, wall time and the final metric snapshot.

:class:`ObsConfig` is the frozen description the harness embeds in
:class:`~repro.harness.config.SimulationConfig`; :class:`Observability`
is the live bundle built from it and handed to the components.

The ``manifest`` names load on first use (PEP 562): only a run that
writes a manifest needs it (it pulls in ``subprocess`` and ``platform``).
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
)
from repro.obs.events import (
    EVENT_SCHEMA,
    NULL_TRACE,
    EventStream,
    TraceEvent,
    event_time_span,
    read_jsonl,
    register_event,
    summarise_events,
)

if TYPE_CHECKING:
    from repro.obs.manifest import RunManifest

#: Public name -> the submodule that defines it, imported on first use.
_LAZY = {
    "RunManifest": "repro.obs.manifest",
    "default_manifest_path": "repro.obs.manifest",
    "describe_code": "repro.obs.manifest",
}

__all__ = [
    "Counter",
    "EVENT_SCHEMA",
    "EventStream",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACE",
    "ObsConfig",
    "Observability",
    "TraceEvent",
    "event_time_span",
    "read_jsonl",
    "register_event",
    "summarise_events",
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted([*globals(), *_LAZY])


@dataclass(frozen=True)
class ObsConfig:
    """Declarative observability switches (all off by default).

    ``trace`` keeps an in-memory event ring (bounded by
    ``trace_capacity``); ``jsonl_path`` additionally streams every event
    to a JSON Lines file (and implies tracing); ``metrics`` turns the
    registry on; ``manifest_path`` writes a run manifest at the end of the
    run (and turns the registry on too: the manifest's counts are its
    snapshot).  ``strict_schema`` makes unregistered event kinds an error.
    """

    trace: bool = False
    trace_capacity: Optional[int] = None
    jsonl_path: Optional[str] = None
    metrics: bool = False
    manifest_path: Optional[str] = None
    strict_schema: bool = False

    def __post_init__(self) -> None:
        if self.trace_capacity is not None and self.trace_capacity < 1:
            raise ConfigurationError(
                f"trace_capacity must be >= 1 (or None), got {self.trace_capacity}"
            )

    @property
    def trace_enabled(self) -> bool:
        return self.trace or self.jsonl_path is not None

    @property
    def any_enabled(self) -> bool:
        return self.trace_enabled or self.metrics or self.manifest_path is not None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def full(cls, jsonl_path: str, manifest_path: str, **kwargs) -> "ObsConfig":
        """Everything on: trace + JSONL export + metrics + manifest."""
        return cls(
            trace=True,
            metrics=True,
            jsonl_path=jsonl_path,
            manifest_path=manifest_path,
            **kwargs,
        )


class Observability:
    """The live observability bundle one run threads through its components."""

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config or ObsConfig()
        self.trace = (
            EventStream(
                capacity=self.config.trace_capacity,
                strict=self.config.strict_schema,
                jsonl_path=self.config.jsonl_path,
            )
            if self.config.trace_enabled
            else NULL_TRACE
        )
        self.metrics = (
            MetricsRegistry(enabled=True)
            if self.config.metrics or self.config.manifest_path is not None
            else NULL_METRICS
        )
        self._started_wall = time.perf_counter()

    def close(self) -> None:
        """Close the JSONL export, if any (idempotent)."""
        if self.config.trace_enabled:
            self.trace.close()

    def trace_summary(self) -> Dict[str, Any]:
        """Trace bookkeeping for the manifest."""
        summary: Dict[str, Any] = {
            "enabled": self.trace.enabled,
            "events_retained": len(self.trace),
            "events_dropped": self.trace.dropped,
        }
        if self.config.trace_enabled:
            summary["unknown_events"] = self.trace.unknown_events
        if self.trace.jsonl_path is not None:
            summary["jsonl_path"] = str(self.trace.jsonl_path)
            summary["jsonl_events_written"] = self.trace.events_written
        return summary

    def build_manifest(
        self,
        label: str,
        seed: int,
        config: Dict[str, Any],
        sim: Optional[Dict[str, Any]] = None,
        counters: Optional[Dict[str, Any]] = None,
        wall_seconds: Optional[float] = None,
    ) -> RunManifest:
        """Assemble the run manifest from the final state of this bundle."""
        from repro.obs.manifest import RunManifest, describe_code

        return RunManifest(
            label=label,
            seed=seed,
            config=config,
            code=describe_code(),
            sim=sim or {},
            counters=counters or {},
            metrics=self.metrics.snapshot(),
            trace=self.trace_summary(),
            wall_seconds=(
                wall_seconds
                if wall_seconds is not None
                else time.perf_counter() - self._started_wall
            ),
        )

    def finalise(
        self,
        label: str,
        seed: int,
        config: Dict[str, Any],
        sim: Optional[Dict[str, Any]] = None,
        counters: Optional[Dict[str, Any]] = None,
        wall_seconds: Optional[float] = None,
    ) -> Optional[RunManifest]:
        """Close sinks and, if configured, write the manifest to disk."""
        self.close()
        if self.config.manifest_path is None:
            return None
        manifest = self.build_manifest(
            label, seed, config, sim=sim, counters=counters, wall_seconds=wall_seconds
        )
        manifest.write(self.config.manifest_path)
        return manifest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Observability trace={self.trace.enabled} "
            f"metrics={self.metrics.enabled}>"
        )


#: A shared all-off bundle (what a bare component effectively runs with).
NULL_OBS = Observability()
