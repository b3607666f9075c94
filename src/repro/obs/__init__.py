"""Unified observability: metrics registry, event pipeline, run manifests.

Three cooperating pieces, all disabled by default so the hot paths stay at
paper speed:

* :mod:`repro.obs.metrics` — named counters/gauges/histograms plus a
  :class:`~repro.obs.metrics.Timer` keyed to simulated time;
* :mod:`repro.obs.events` — the schema'd trace stream with pluggable
  sinks (in-memory ring, JSONL file);
* :mod:`repro.obs.manifest` — per-run JSON manifests capturing config,
  seed, code state, wall time and the final metric snapshot.

:class:`ObsConfig` is the frozen description the harness embeds in
:class:`~repro.harness.config.SimulationConfig`; :class:`Observability`
is the live bundle built from it and handed to the components.

The ``events`` and ``manifest`` names load on first use (PEP 562): only a
traced run needs the event pipeline, and only a run that writes a manifest
needs ``manifest`` (which pulls in ``subprocess`` and ``platform``).
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    Timer,
)
from repro.sim.trace import NULL_TRACE, TraceEvent, TraceLog

if TYPE_CHECKING:
    from repro.obs.events import JsonlSink
    from repro.obs.manifest import RunManifest

#: Public name -> the submodule that defines it, imported on first use.
_LAZY = {
    "EVENT_SCHEMA": "repro.obs.events",
    "EventSink": "repro.obs.events",
    "EventStream": "repro.obs.events",
    "JsonlSink": "repro.obs.events",
    "RingSink": "repro.obs.events",
    "event_time_span": "repro.obs.events",
    "read_jsonl": "repro.obs.events",
    "register_event": "repro.obs.events",
    "summarise_events": "repro.obs.events",
    "RunManifest": "repro.obs.manifest",
    "default_manifest_path": "repro.obs.manifest",
    "describe_code": "repro.obs.manifest",
}

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACE",
    "ObsConfig",
    "Observability",
    "Timer",
    "TraceEvent",
    "TraceLog",
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
    run.  ``strict_schema`` makes unregistered event kinds an error.
    """

    trace: bool = False
    trace_capacity: Optional[int] = None
    jsonl_path: Optional[str] = None
    metrics: bool = False
    manifest_path: Optional[str] = None
    strict_schema: bool = False

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
        self.jsonl_sink: Optional[JsonlSink] = None
        if self.config.trace_enabled:
            from repro.obs.events import EventStream, JsonlSink

            sinks = []
            if self.config.jsonl_path is not None:
                self.jsonl_sink = JsonlSink(self.config.jsonl_path)
                sinks.append(self.jsonl_sink)
            self.trace: TraceLog = EventStream(
                enabled=True,
                capacity=self.config.trace_capacity,
                sinks=sinks,
                strict=self.config.strict_schema,
            )
        else:
            self.trace = NULL_TRACE
        self.metrics = MetricsRegistry(enabled=True) if self.config.metrics else NULL_METRICS
        self._started_wall = time.perf_counter()

    def close(self) -> None:
        """Flush and close any file-backed sinks (idempotent)."""
        if self.config.trace_enabled:
            self.trace.close()

    def trace_summary(self) -> Dict[str, Any]:
        """Trace bookkeeping for the manifest."""
        summary: Dict[str, Any] = {
            "enabled": self.trace.enabled,
            "events_retained": len(self.trace),
            "events_dropped": getattr(self.trace, "dropped", 0),
        }
        if self.config.trace_enabled:
            summary["unknown_events"] = self.trace.unknown_events
        if self.jsonl_sink is not None:
            summary["jsonl_path"] = str(self.jsonl_sink.path)
            summary["jsonl_events_written"] = self.jsonl_sink.events_written
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
