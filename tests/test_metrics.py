"""Tests for time series, the periodic sampler and report formatting."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.metrics.report import format_metrics, format_series, format_table
from repro.obs.metrics import MetricsRegistry
from repro.metrics.series import PeriodicSampler, TimeSeries
from repro.sim.engine import Simulator


class TestTimeSeries:
    def test_summary_statistics(self):
        series = TimeSeries("x")
        for t, v in [(0.0, 1.0), (1.0, 5.0), (2.0, 3.0)]:
            series.append(t, v)
        assert series.maximum == 5.0
        assert series.minimum == 1.0
        assert series.mean == pytest.approx(3.0)
        assert series.last == 3.0
        assert len(series) == 3

    def test_empty_series(self):
        series = TimeSeries("x")
        assert series.maximum == 0.0
        assert series.mean == 0.0
        assert series.samples() == []

    def test_time_must_not_go_backwards(self):
        series = TimeSeries("x")
        series.append(2.0, 1.0)
        with pytest.raises(ConfigurationError):
            series.append(1.0, 1.0)

    def test_iteration(self):
        series = TimeSeries("x")
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        assert list(series) == [(0.0, 1.0), (1.0, 2.0)]


class TestPeriodicSampler:
    def test_samples_at_fixed_period(self):
        sim = Simulator()
        sampler = PeriodicSampler(sim, 0.5)
        value = {"v": 0.0}
        series = sampler.add_probe("v", lambda: value["v"])
        sampler.start()
        value["v"] = 10.0
        sim.run_until(1.6)
        # Samples at t = 0.0, 0.5, 1.0, 1.5.
        assert series.times == pytest.approx([0.0, 0.5, 1.0, 1.5])
        assert series.values[0] == 0.0
        assert series.values[-1] == 10.0

    def test_multiple_probes(self):
        sim = Simulator()
        sampler = PeriodicSampler(sim, 1.0)
        sampler.add_probe("a", lambda: 1)
        sampler.add_probe("b", lambda: 2)
        sampler.start()
        sim.run_until(2.5)
        assert sampler.series["a"].values == [1.0, 1.0, 1.0]
        assert sampler.series["b"].values == [2.0, 2.0, 2.0]

    def test_duplicate_probe_rejected(self):
        sampler = PeriodicSampler(Simulator(), 1.0)
        sampler.add_probe("a", lambda: 0)
        with pytest.raises(ConfigurationError):
            sampler.add_probe("a", lambda: 1)

    def test_double_start_rejected(self):
        sampler = PeriodicSampler(Simulator(), 1.0)
        sampler.start()
        with pytest.raises(ConfigurationError):
            sampler.start()

    def test_period_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PeriodicSampler(Simulator(), 0.0)


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [("a", 1), ("long-name", 22.5)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "22.50" in lines[3]
        assert set(lines[1]) <= {"-", " "}

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_format_series_includes_title(self):
        text = format_series("Figure X", "mix", ["fw"], [("5%", 1.0)])
        assert text.startswith("Figure X\n")
        assert "5%" in text

    def test_format_table_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_format_metrics_shows_histogram_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("server.commit_latency")
        for ms in range(1, 101):
            hist.observe(ms / 1000.0)
        registry.histogram("empty")
        lines = format_metrics(registry.snapshot()).splitlines()
        row = next(line for line in lines if "server.commit_latency" in line)
        for stat in (50, 99):
            assert f"p{stat}={hist.percentile(stat):.4g} " in row
        assert row.endswith("max=0.1")
        empty = next(line for line in lines if "empty" in line)
        assert "p50=- p99=- max=-" in empty
