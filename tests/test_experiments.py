"""Smoke-scale tests for the figure drivers (E1-E6).

Besides the plumbing, these hold the paper's shape claims as gates: each
bound below is the one the paper's prose implies, checked on the tiny
sweep (measured: 5 % space ratio 3.70, bandwidth premium 0.123 / 0.397,
EL peak memory 48,400 B, scarce flushing 24 blocks at 1.61x locality).
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.harness.experiments import (
    Figures456Result,
    headline_claims,
    run_figure_7,
    run_figures_4_5_6,
    run_scarce_flush,
)
from repro.harness.scale import Scale
from repro.harness.sweep import SweepCache


@pytest.fixture(scope="module")
def tiny_scale() -> Scale:
    return Scale(
        label="test-tiny",
        runtime=20.0,
        mix_points=(0.05, 0.40),
        gen0_candidates=(16, 18),
        gen0_refine_radius=0,
    )


@pytest.fixture(scope="module")
def cache(tmp_path_factory) -> SweepCache:
    return SweepCache(tmp_path_factory.mktemp("sweep-cache"))


@pytest.fixture(scope="module")
def fig456(tiny_scale, cache) -> Figures456Result:
    return run_figures_4_5_6(tiny_scale, seed=0, cache=cache)


class TestFigures456:
    def test_one_point_per_mix(self, fig456, tiny_scale):
        assert [p.long_fraction for p in fig456.points] == list(tiny_scale.mix_points)

    def test_el_beats_fw_on_space(self, fig456):
        for point in fig456.points:
            assert point.el_blocks < point.fw_blocks
        # "It reduces disk space by a factor of 3.6" at the 5 % mix; the
        # band allows for the shorter simulated span.
        assert 2.0 <= fig456.points[0].space_ratio <= 6.0

    def test_el_costs_more_bandwidth_and_memory(self, fig456):
        for point in fig456.points:
            assert point.el_bandwidth_wps > point.fw_bandwidth_wps
            assert point.el_memory_peak_bytes > point.fw_memory_peak_bytes
            # "Memory requirements are modest": tens of KB, not MB.
            assert point.el_memory_peak_bytes < 200_000

    def test_bandwidth_premium_modest_and_growing(self, fig456):
        # "Only an 11% increase" at 5 %; "the increase in bandwidth is
        # greater" as the fraction of long transactions grows.
        premiums = [p.bandwidth_increase for p in fig456.points]
        assert premiums[0] < 0.30
        assert premiums[0] < premiums[-1]

    def test_memory_grows_with_long_fraction(self, fig456):
        first, last = fig456.points[0], fig456.points[-1]
        assert last.fw_memory_peak_bytes > first.fw_memory_peak_bytes
        assert last.el_memory_peak_bytes > first.el_memory_peak_bytes

    def test_advantage_shrinks_with_long_fraction(self, fig456):
        # "As the proportion of 10s transactions increases, EL's relative
        # advantage over FW diminishes."
        ratios = [p.space_ratio for p in fig456.points]
        assert ratios[0] > ratios[-1]

    def test_updates_per_second_column(self, fig456):
        assert fig456.points[0].updates_per_second == pytest.approx(210.0)
        assert fig456.points[-1].updates_per_second == pytest.approx(280.0)

    def test_figure_text_rendering(self, fig456):
        assert "Figure 4" in fig456.figure4_text()
        assert "Figure 5" in fig456.figure5_text()
        assert "Figure 6" in fig456.figure6_text()

    def test_cache_hit_on_second_call(self, tiny_scale, cache):
        before = cache.hits
        again = run_figures_4_5_6(tiny_scale, seed=0, cache=cache)
        assert cache.hits > before
        assert len(again.points) == 2

    def test_parallel_and_warm_cache_byte_identical(
        self, fig456, tiny_scale, tmp_path
    ):
        # The serial cold sweep is ``fig456``; rerun it over two workers on
        # a fresh cache, then replay it from that cache: the searches
        # re-walk, every probe answered by a per-run entry.
        cache = SweepCache(tmp_path / "cache")
        parallel = run_figures_4_5_6(tiny_scale, seed=0, cache=cache, jobs=2)
        warm = run_figures_4_5_6(
            tiny_scale, seed=0, cache=SweepCache(cache.directory),
            manifest_dir=tmp_path / "manifests",
        )
        serial_doc = json.dumps(asdict(fig456), sort_keys=True)
        assert json.dumps(asdict(parallel), sort_keys=True) == serial_doc
        assert json.dumps(asdict(warm), sort_keys=True) == serial_doc
        (manifest,) = (tmp_path / "manifests").glob("*.json")
        replay = json.loads(manifest.read_text())["counters"]["parallel"]
        assert replay["runs_executed"] == 0
        assert replay["cache_hits"] > 0


class TestFigure7:
    def test_sweep_shrinks_until_kill(self, fig456, tiny_scale, cache):
        result = run_figure_7(tiny_scale, seed=0, cache=cache)
        assert result.gen0_blocks == min(
            fig456.points, key=lambda p: p.long_fraction
        ).el_gen0
        totals = [p.total_blocks for p in result.points]
        assert totals == sorted(totals, reverse=True)
        assert result.feasible_points
        assert result.minimum_total_blocks <= totals[0]
        # Recirculation lets EL go below the no-recirc minimum.
        reference = min(fig456.points, key=lambda p: p.long_fraction)
        assert result.minimum_total_blocks <= reference.el_blocks

    def test_recirculation_trades_space_for_bandwidth(self, tiny_scale, cache):
        result = run_figure_7(tiny_scale, seed=0, cache=cache)
        feasible = result.feasible_points
        assert len(feasible) >= 2
        largest = max(feasible, key=lambda p: p.total_blocks)
        smallest = min(feasible, key=lambda p: p.total_blocks)
        # Shrinking the last generation raises its write rate and the total.
        assert smallest.total_blocks < largest.total_blocks
        assert smallest.last_generation_wps >= largest.last_generation_wps
        assert smallest.total_wps >= largest.total_wps
        assert smallest.recirculated_records > 0
        # EL stays far below FW's space at a modest bandwidth premium.
        assert smallest.total_blocks * 3 < result.fw_blocks
        assert smallest.total_wps < result.fw_bandwidth_wps * 1.35

    def test_text_rendering(self, tiny_scale, cache):
        result = run_figure_7(tiny_scale, seed=0, cache=cache)
        text = result.figure7_text()
        assert "Figure 7" in text
        assert "FW reference" in text


class TestScarceFlushAndHeadlines:
    def test_scarce_flush_locality_improves(self, tiny_scale, cache):
        result = run_scarce_flush(tiny_scale, seed=0, cache=cache)
        # "As a backlog accumulates, disk I/O for flushing becomes less
        # random and more sequential."
        assert result.mean_seek_distance_scarce < result.mean_seek_distance_baseline
        assert result.locality_gain > 1.3
        # Space stays small even when flushing can barely keep up, and the
        # backlog that makes flushing sequential does build up.
        assert result.total_blocks < 60
        assert result.flush_peak_backlog > 0
        assert "Scarce" in result.text()

    def test_headline_claims(self, tiny_scale, cache):
        claims = headline_claims(tiny_scale, seed=0, cache=cache)
        # Paper: 3.6x / +11 % without recirculation, 4.4x / +12 % with.
        assert 2.0 <= claims.no_recirc_space_ratio <= 6.5
        assert claims.recirc_space_ratio >= claims.no_recirc_space_ratio
        assert claims.recirc_space_ratio <= 6.5
        assert 0.0 < claims.no_recirc_bandwidth_increase <= 0.30
        assert 0.0 < claims.recirc_bandwidth_increase <= 0.35
        assert "space ratio" in claims.text()
