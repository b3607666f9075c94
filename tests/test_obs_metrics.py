"""Tests for the metrics registry: counters, gauges and histograms."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_METRICS,
    Counter,
    Gauge,
    ZERO_BUCKET,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_default_and_amount(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_snapshot(self):
        counter = Counter("c")
        counter.inc(2)
        assert counter.snapshot() == {"type": "counter", "value": 2}


class TestGauge:
    def test_set_tracks_peak(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(1.0)
        assert gauge.value == 1.0
        assert gauge.peak == 3.0

    def test_snapshot(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        assert gauge.snapshot() == {"type": "gauge", "value": 2.5, "peak": 2.5}


class TestHistogram:
    def test_bucketing_sixteen_per_doubling(self):
        hist = Histogram("h")
        for value in (0.5, 1.0, 1.5, 5.0, 0.0):
            hist.observe(value)
        # floor(log2(v) * 16) for each positive v; zero gets its own bucket.
        assert hist.counts == {-16: 1, 0: 1, 9: 1, 37: 1, ZERO_BUCKET: 1}
        assert hist.snapshot()["bucket_counts"] == [1, 1, 1, 1, 1]

    def test_summary_stats(self):
        hist = Histogram("h")
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.count == 2
        assert hist.mean == 3.0
        assert hist.min == 2.0
        assert hist.max == 4.0

    def test_empty_mean_is_zero(self):
        assert Histogram("h").mean == 0.0


class TestMetricsRegistry:
    def test_same_name_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigurationError):
            registry.gauge("a")

    def test_disabled_registry_hands_out_nulls(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL_COUNTER
        assert registry.gauge("b") is NULL_GAUGE
        assert registry.histogram("c") is NULL_HISTOGRAM
        assert len(registry) == 0

    def test_null_metrics_mutators_are_noops(self):
        NULL_METRICS.counter("x").inc(100)
        NULL_METRICS.gauge("y").set(9.0)
        NULL_METRICS.histogram("z").observe(1.0)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0

    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.gauge("a").set(1.0)
        registry.histogram("c").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "b", "c"]
        json.dumps(snapshot)  # must not raise

    def test_get_returns_the_registered_metric(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        assert registry.get("h") is hist
        assert registry.get("missing") is None
