"""Tests for the metrics registry: counters, views and histograms."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_HISTOGRAM,
    NULL_METRICS,
    Counter,
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


class TestView:
    def test_reads_its_owner_when_read(self):
        owner = {"count": 0}
        registry = MetricsRegistry()
        registry.view("c", lambda: owner["count"])
        owner["count"] = 7
        assert registry.get("c").value == 7
        assert registry.snapshot() == {"c": {"type": "counter", "value": 7}}

    def test_peak_makes_a_gauge(self):
        registry = MetricsRegistry()
        registry.view("g", lambda: 1, lambda: 3)
        view = registry.get("g")
        assert (view.value, view.peak) == (1, 3)
        assert view.snapshot() == {"type": "gauge", "value": 1, "peak": 3}

    def test_second_view_of_a_name_raises(self):
        registry = MetricsRegistry()
        registry.view("a", lambda: 0)
        with pytest.raises(ConfigurationError):
            registry.view("a", lambda: 1)
        with pytest.raises(ConfigurationError):
            registry.counter("a")


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
            registry.histogram("a")
        with pytest.raises(ConfigurationError):
            registry.view("a", lambda: 0)

    def test_disabled_registry_hands_out_nulls(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL_COUNTER
        assert registry.histogram("c") is NULL_HISTOGRAM
        registry.view("b", lambda: 1)
        assert len(registry) == 0

    def test_null_metrics_mutators_are_noops(self):
        NULL_METRICS.counter("x").inc(100)
        NULL_METRICS.histogram("z").observe(1.0)
        assert NULL_COUNTER.value == 0
        assert NULL_HISTOGRAM.count == 0

    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.view("a", lambda: 1.0, lambda: 2.0)
        registry.histogram("c").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "b", "c"]
        json.dumps(snapshot)  # must not raise

    def test_get_returns_the_registered_metric(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        assert registry.get("h") is hist
        assert registry.get("missing") is None
