"""Tests for experiment-driver options and cross-module seams not covered
by the main driver tests (overrides, Poisson workloads end-to-end, log-scan
realism on live simulation output)."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.harness.config import SimulationConfig
from repro.harness.experiments import run_figure_7, run_figures_4_5_6
from repro.harness.scale import Scale
from repro.harness.simulator import Simulation
from repro.harness.sweep import SweepCache
from repro.recovery.analyzer import LogScan


@pytest.fixture(scope="module")
def tiny_scale() -> Scale:
    return Scale(
        label="opts-tiny",
        runtime=20.0,
        mix_points=(0.05,),
        gen0_candidates=(16,),
        gen0_refine_radius=0,
    )


@pytest.fixture(scope="module")
def cache(tmp_path_factory) -> SweepCache:
    return SweepCache(tmp_path_factory.mktemp("opts-cache"))


class TestFigure7Overrides:
    def test_explicit_gen0_and_start(self, tiny_scale, cache):
        result = run_figure_7(
            tiny_scale,
            cache=cache,
            gen0_blocks=18,
            gen1_start=12,
        )
        assert result.gen0_blocks == 18
        assert result.points[0].gen1_blocks == 12
        assert result.points[0].total_blocks == 30

    def test_cache_key_includes_overrides(self, tiny_scale, cache):
        # The overrides reach the run fingerprints, so different values
        # never share a cached run.
        twelve = run_figure_7(tiny_scale, cache=cache, gen0_blocks=18, gen1_start=12)
        six = run_figure_7(tiny_scale, cache=cache, gen0_blocks=18, gen1_start=6)
        assert twelve.points[0].gen1_blocks == 12
        assert six.points[0].gen1_blocks == 6
        key_before = cache.hits
        again = run_figure_7(tiny_scale, cache=cache, gen0_blocks=18, gen1_start=6)
        assert cache.hits > key_before  # identical call hits the cache
        assert asdict(again) == asdict(six)


class TestFiguresSweepInternals:
    def test_points_sorted_by_mix(self, tiny_scale, cache):
        result = run_figures_4_5_6(tiny_scale, cache=cache)
        fractions = [p.long_fraction for p in result.points]
        assert fractions == sorted(fractions)

    def test_seed_is_part_of_the_key(self, tiny_scale, cache):
        a = run_figures_4_5_6(tiny_scale, seed=0, cache=cache)
        b = run_figures_4_5_6(tiny_scale, seed=1, cache=cache)
        # Different seeds may legitimately produce the same minima, but the
        # cache must store them under distinct keys.
        assert a.seed == 0 and b.seed == 1


class TestPoissonEndToEnd:
    def test_poisson_generator_commits_transactions(self):
        config = SimulationConfig.ephemeral(
            (18, 16),
            long_fraction=0.05,
            runtime=15.0,
            poisson_arrivals=True,
            num_objects=10_000,
            flush_drives=2,
            flush_write_seconds=0.005,
        )
        simulation = Simulation(config)
        result = simulation.run()
        # Mean arrivals 100/s with Poisson jitter.
        assert 1200 < result.transactions_begun < 1800
        assert result.transactions_committed > 0

    def test_poisson_is_seed_deterministic(self):
        config = SimulationConfig.ephemeral(
            (18, 16),
            long_fraction=0.05,
            runtime=10.0,
            poisson_arrivals=True,
            seed=5,
            num_objects=10_000,
            flush_drives=2,
            flush_write_seconds=0.005,
        )
        a = Simulation(config).run()
        b = Simulation(config).run()
        assert a.transactions_begun == b.transactions_begun
        assert a.updates_written == b.updates_written


class TestLogScanOnLiveOutput:
    def test_scan_of_recirculating_log_sees_duplicates(self):
        # A small recirculating log leaves multiple physical copies of the
        # same LSN on disk; the scan must count and deduplicate them.
        config = SimulationConfig.ephemeral(
            (6, 5),
            recirculation=True,
            long_fraction=0.3,
            arrival_rate=40.0,
            runtime=25.0,
            num_objects=5_000,
            flush_drives=2,
            flush_write_seconds=0.01,
        )
        simulation = Simulation(config)
        simulation.run_until(20.0)
        scan = LogScan(simulation.capture_durable_log())
        assert scan.copies_scanned > scan.unique_records
        assert scan.duplicate_copies == scan.copies_scanned - scan.unique_records
        # Every committed tid the scan reports must have a durable COMMIT.
        assert scan.committed_tids <= scan.seen_tids

    def test_scan_block_count_matches_capture(self):
        config = SimulationConfig.ephemeral(
            (8, 8),
            long_fraction=0.05,
            arrival_rate=30.0,
            runtime=10.0,
            num_objects=5_000,
            flush_drives=2,
            flush_write_seconds=0.005,
        )
        simulation = Simulation(config)
        simulation.run_until(8.0)
        images = simulation.capture_durable_log()
        assert LogScan(images).blocks_scanned == len(images)
