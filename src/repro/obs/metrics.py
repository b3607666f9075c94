"""Named counters, gauges and histograms for simulation instrumentation.

A :class:`MetricsRegistry` hands out metric objects by name.  Components
fetch their metrics once at construction time and update them on the hot
path; when the registry is disabled it hands out shared no-op singletons,
so a disabled run pays one dynamic dispatch per update site and allocates
nothing.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Histogram buckets per doubling of the value: each bucket is
#: ``2**(1/16) - 1`` (about 4.4 %) wide, at any scale.
BUCKETS_PER_DOUBLING = 16

#: Bucket key shared by every value <= 0 (sorts before all others).
ZERO_BUCKET = -math.inf

_log2 = math.log2
_floor = math.floor


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value with peak tracking."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value, "peak": self.peak}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value} peak={self.peak}>"


class Histogram:
    """Log-bucketed histogram with summary stats, merging and percentiles.

    Every histogram shares one bucket geometry (see
    :data:`BUCKETS_PER_DOUBLING`), so any two merge and none needs its
    edges configured.  Counts live in a sparse dict keyed by bucket index:
    bucket ``k`` holds ``[2**(k/16), 2**((k+1)/16))`` and values <= 0
    share the :data:`ZERO_BUCKET`.
    """

    __slots__ = ("name", "counts", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.counts: Dict[float, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        key = _floor(_log2(value) * BUCKETS_PER_DOUBLING) if value > 0 else ZERO_BUCKET
        counts = self.counts
        counts[key] = counts.get(key, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place; returns ``self``."""
        counts = self.counts
        for key, n in other.counts.items():
            counts[key] = counts.get(key, 0) + n
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    @classmethod
    def merged(cls, histograms: Iterable["Histogram"]) -> "Histogram":
        """A fresh histogram holding every observation of ``histograms``."""
        result = cls("merged")
        for hist in histograms:
            result.merge(hist)
        return result

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile (``0 < q <= 100``).

        Interpolates linearly inside the bucket holding the target rank and
        clamps the result into the observed ``[min, max]``, so the estimate
        is within one bucket width (about 4.4 %) of the raw sample's.
        Returns ``None`` when empty.
        """
        if not 0.0 < q <= 100.0:
            raise ConfigurationError(f"percentile must be in (0, 100], got {q}")
        if self.count == 0:
            return None
        target = (q / 100.0) * self.count
        cumulative = 0
        for key in sorted(self.counts):
            n = self.counts[key]
            if cumulative + n >= target:
                lo, hi = self._edges(key)
                value = lo + (target - cumulative) / n * (hi - lo)
                return min(max(value, self.min), self.max)
            cumulative += n
        return self.max  # pragma: no cover - only float rounding in target lands here

    def _edges(self, key: float) -> Tuple[float, float]:
        if key == ZERO_BUCKET:
            return self.min, 0.0
        return 2.0 ** (key / BUCKETS_PER_DOUBLING), 2.0 ** ((key + 1) / BUCKETS_PER_DOUBLING)

    def snapshot(self) -> dict:
        """Summary stats, p50/p95/p99 and the non-empty buckets' upper edges."""
        keys = sorted(self.counts)
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": [self._edges(key)[1] for key in keys],
            "bucket_counts": [self.counts[key] for key in keys],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.4f}>"


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: Shared no-op instances a disabled registry hands out.
NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Creates and holds named metrics; disabled registries hand out no-ops.

    Names are dot-namespaced (``"el.forwarded"``, ``"flush.depth"``,
    ``"log.gen0.blocks_written"``).  Re-requesting a name returns the same
    instance; requesting it as a different metric type raises.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, factory, null, kind):
        if not self.enabled:
            return null
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), NULL_COUNTER, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), NULL_GAUGE, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, lambda: Histogram(name), NULL_HISTOGRAM, Histogram)

    def get(self, name: str) -> Optional[object]:
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, dict]:
        """All metrics as plain JSON-serialisable dicts, sorted by name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"<MetricsRegistry {state} metrics={len(self._metrics)}>"


#: A shared disabled registry components can default to.
NULL_METRICS = MetricsRegistry(enabled=False)
