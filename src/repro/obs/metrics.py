"""Named counters, views and histograms for simulation instrumentation.

A :class:`MetricsRegistry` holds metrics by name, in two kinds:

* **Views**, read at snapshot time.  Every count a log manager keeps
  (transactions begun, committed, aborted and killed, blocks and bytes
  written, forwarded, recirculated and garbage records, flushes, fault
  counts, the flush backlog and buffer occupancy) is an int attribute of
  the component that counts it; :meth:`MetricsRegistry.view` binds a
  name to a function that reads that int (and, for a gauge, its peak).
  Nothing runs on the hot path, and the simulator and the live server
  report a manager's counts under the same names.  The rule for a new
  count: an int plus a view, never an int plus a :class:`Counter`.
* **Pushed** metrics, updated where the event happens: the histograms
  (``flush.settle_seconds``, ``log.block_records``,
  ``*.gap_blocks_processed``) and the live server's own ``server.*`` and
  storage ``log.*`` metrics, which no manager counts.

A simulated run's manifest carries its counts in the registry snapshot
and nowhere else.

A disabled registry registers no views and hands out shared no-op
counters and histograms, so a disabled run allocates nothing.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Histogram buckets per doubling of the value: each bucket is
#: ``2**(1/16) - 1`` (about 4.4 %) wide, at any scale.
BUCKETS_PER_DOUBLING = 16

#: Bucket key shared by every value <= 0 (sorts before all others).
ZERO_BUCKET = -math.inf

#: Reads a component's count when a snapshot is taken.
Reader = Callable[[], float]

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


class View:
    """A count read from its owner at snapshot time: a counter, or a gauge
    when ``peak`` is given."""

    __slots__ = ("name", "_read", "_peak")

    def __init__(self, name: str, read: Reader, peak: Optional[Reader] = None):
        self.name = name
        self._read = read
        self._peak = peak

    @property
    def value(self) -> float:
        return self._read()

    @property
    def peak(self) -> Optional[float]:
        return None if self._peak is None else self._peak()

    def snapshot(self) -> dict:
        if self._peak is None:
            return {"type": "counter", "value": self._read()}
        return {"type": "gauge", "value": self._read(), "peak": self._peak()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<View {self.name}={self.value}>"


class Histogram:
    """Log-bucketed histogram with summary stats and percentiles.

    Every histogram shares one bucket geometry (see
    :data:`BUCKETS_PER_DOUBLING`), so none needs its edges configured.
    Counts live in a sparse dict keyed by bucket index: bucket ``k``
    holds ``[2**(k/16), 2**((k+1)/16))`` and values <= 0 share the
    :data:`ZERO_BUCKET`.
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


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: Shared no-op instances a disabled registry hands out.
NULL_COUNTER = _NullCounter("null")
NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Holds named metrics; a disabled registry holds none.

    Names are dot-namespaced (``"el.forwarded"``, ``"flush.depth"``,
    ``"log.gen0.blocks_written"``).  Re-requesting a counter or histogram
    returns the same instance; requesting a name as a different metric
    type, or viewing a name twice, raises.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind, null):
        if not self.enabled:
            return null
        existing = self._metrics.get(name)
        if existing is None:
            existing = self._metrics[name] = kind(name)
        elif type(existing) is not kind:
            self._conflict(name)
        return existing

    def _conflict(self, name: str) -> None:
        raise ConfigurationError(
            f"metric {name!r} already registered as "
            f"{type(self._metrics[name]).__name__}"
        )

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, NULL_COUNTER)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram, NULL_HISTOGRAM)

    def view(self, name: str, read: Reader, peak: Optional[Reader] = None) -> None:
        """Report ``read()`` (and ``peak()``, making it a gauge) as ``name``.

        The functions run only when the metric is read; a disabled
        registry ignores the call.
        """
        if not self.enabled:
            return
        if name in self._metrics:
            self._conflict(name)
        self._metrics[name] = View(name, read, peak)

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
