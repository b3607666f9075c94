"""Tests for the parallel harness: fingerprints, runner, speculative search.

The determinism tests run *real* (tiny) simulations both serially and
through a multiprocess :class:`ParallelRunner` and require identical
outcomes — the core guarantee that makes ``--jobs N`` safe for every
figure driver.
"""

from __future__ import annotations

import pytest

from repro.errors import ParallelExecutionError
from repro.harness.config import SimulationConfig
from repro.harness.parallel import ParallelRunner, default_jobs, execute_run
from repro.harness.search import (
    SpaceSearch,
    _bisection_frontier,
    _bracket_points,
)
from repro.harness.simulator import run_simulation
from repro.harness.sweep import SweepCache
from repro.obs import ObsConfig
from repro.obs.manifest import aggregate_worker_manifests

RUNTIME = 8.0  # simulated seconds: long enough to log, short enough for CI


def counters_of(result) -> dict:
    """Result document minus wall-clock noise."""
    data = result.to_dict()
    data.pop("wall_seconds")
    return data


class TestConfigFingerprint:
    def test_equal_configs_equal_fingerprints(self):
        a = SimulationConfig.ephemeral((18, 16), runtime=30.0, seed=3)
        b = SimulationConfig.ephemeral((18, 16), runtime=30.0, seed=3)
        assert a.fingerprint() == b.fingerprint()

    def test_meaningful_field_changes_fingerprint(self):
        base = SimulationConfig.ephemeral((18, 16), runtime=30.0)
        assert base.fingerprint() != base.replace(seed=1).fingerprint()
        assert base.fingerprint() != base.replace(generation_sizes=(18, 17)).fingerprint()
        assert (
            base.fingerprint()
            != base.replace(flush_write_seconds=0.045).fingerprint()
        )

    def test_observability_never_affects_fingerprint(self):
        base = SimulationConfig.ephemeral((18, 16), runtime=30.0)
        observed = base.replace(obs=ObsConfig(trace=True, metrics=True))
        assert base.fingerprint() == observed.fingerprint()

    def test_default_valued_fields_are_omitted(self):
        # Omission of default-valued fields is what keeps fingerprints
        # stable when a new defaulted knob is added to SimulationConfig.
        assert SimulationConfig().fingerprint_payload() == {}
        payload = SimulationConfig(seed=7).fingerprint_payload()
        assert payload == {"seed": 7}

    def test_explicit_default_matches_omitted_default(self):
        implicit = SimulationConfig.ephemeral((18, 16), runtime=30.0)
        explicit = implicit.replace(
            arrival_rate=SimulationConfig.arrival_rate,
            sample_period=SimulationConfig.sample_period,
        )
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_field_order_does_not_matter(self):
        # Payload serialisation is key-sorted, so two configs built by
        # different construction orders digest identically.
        a = SimulationConfig(seed=2, arrival_rate=50.0, runtime=40.0)
        b = SimulationConfig(runtime=40.0, arrival_rate=50.0, seed=2)
        assert a.fingerprint() == b.fingerprint()


class TestParallelRunner:
    def test_order_preserved_and_identical_to_serial(self):
        configs = [
            SimulationConfig.ephemeral((18, 16), runtime=RUNTIME),
            SimulationConfig.firewall(80, runtime=RUNTIME),
            SimulationConfig.ephemeral((20, 16), runtime=RUNTIME, seed=1),
        ]
        with ParallelRunner(jobs=2) as runner:
            parallel = runner.run_many(configs)
        serial = [run_simulation(config) for config in configs]
        for serial_result, parallel_result in zip(serial, parallel):
            assert counters_of(serial_result) == counters_of(parallel_result)

    def test_duplicate_configs_execute_once(self):
        config = SimulationConfig.ephemeral((18, 16), runtime=RUNTIME)
        with ParallelRunner(jobs=1) as runner:
            results = runner.run_many([config, config, config])
        assert runner.runs_executed == 1
        assert all(r is results[0] for r in results)

    def test_per_run_cache_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = SimulationConfig.ephemeral((18, 16), runtime=RUNTIME)
        with ParallelRunner(jobs=1, cache=cache) as first:
            original = first.run_one(config)
        assert first.runs_executed == 1
        with ParallelRunner(jobs=1, cache=cache) as second:
            recalled = second.run_one(config)
        assert second.runs_executed == 0
        assert second.cache_hits == 1
        assert counters_of(recalled) == counters_of(original)

    def test_worker_manifests_recorded(self):
        config = SimulationConfig.ephemeral((18, 16), runtime=RUNTIME)
        with ParallelRunner(jobs=2) as runner:
            runner.run_many([config, config.replace(seed=1)])
        assert len(runner.worker_manifests) == 2
        for manifest in runner.worker_manifests:
            assert manifest["fingerprint"]
            assert manifest["wall_seconds"] > 0
            assert manifest["events_executed"] > 0

    def test_worker_exception_raises_parallel_error(self):
        config = SimulationConfig.ephemeral((18, 16), runtime=RUNTIME)
        with ParallelRunner(jobs=2, worker=_failing_worker) as runner:
            with pytest.raises(ParallelExecutionError):
                runner.run_many([config, config.replace(seed=1)])

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6
        monkeypatch.setenv("REPRO_JOBS", "junk")
        assert default_jobs() == 1

    def test_execute_run_manifest_shape(self):
        config = SimulationConfig.ephemeral((18, 16), runtime=RUNTIME)
        result, manifest = execute_run(config)
        assert result.transactions_begun > 0
        assert manifest["fingerprint"] == config.fingerprint()
        assert manifest["generation_sizes"] == [18, 16]


class TestSpeculativeSearch:
    def test_fw_search_serial_vs_parallel_identical(self):
        template = SimulationConfig.firewall(64, runtime=RUNTIME)
        serial = SpaceSearch(template).fw_minimum()
        with ParallelRunner(jobs=2) as runner:
            parallel = SpaceSearch(template, parallel=runner).fw_minimum()
        assert parallel.sizes == serial.sizes
        assert counters_of(parallel.result) == counters_of(serial.result)

    def test_el_search_serial_vs_parallel_identical(self):
        template = SimulationConfig.ephemeral(
            (18, 16), recirculation=False, runtime=RUNTIME
        )
        serial = SpaceSearch(template).el_minimum([16, 20], refine_radius=0)
        with ParallelRunner(jobs=2) as runner:
            parallel = SpaceSearch(template, parallel=runner).el_minimum(
                [16, 20], refine_radius=0
            )
        assert parallel.sizes == serial.sizes
        assert counters_of(parallel.result) == counters_of(serial.result)

    def test_speculation_shares_cache_with_serial_probes(self, tmp_path):
        # A parallel search warms the per-run cache; a later serial search
        # over the same template replays entirely from disk.
        template = SimulationConfig.firewall(64, runtime=RUNTIME)
        cache = SweepCache(tmp_path)
        with ParallelRunner(jobs=2, cache=cache) as warm:
            SpaceSearch(template, parallel=warm).fw_minimum()
        with ParallelRunner(jobs=1, cache=cache) as cold:
            SpaceSearch(template, parallel=cold).fw_minimum()
        assert cold.runs_executed == 0
        assert cold.cache_hits > 0

    def test_bracket_points(self):
        assert _bracket_points(10, 3, 1000) == [10, 20, 40]
        assert _bracket_points(600, 4, 1000) == [600, 1000]
        assert _bracket_points(1000, 4, 1000) == [1000]

    def test_bisection_frontier_is_serial_reachable(self):
        # First point must be the serial midpoint; the rest midpoints of
        # the child intervals.
        assert _bisection_frontier(0, 16, 3, 1) == [8, 4, 12]
        assert _bisection_frontier(0, 2, 3, 1) == [1]
        assert _bisection_frontier(0, 1, 3, 1) == []

    def test_bisection_frontier_skips_sub_floor_midpoints(self):
        # Midpoints below the floor are decided without simulation, so the
        # frontier descends through them instead of evaluating them.
        points = _bisection_frontier(0, 16, 3, 9)
        assert points
        assert all(p >= 9 for p in points)


class TestAggregateWorkerManifests:
    def test_empty(self):
        block = aggregate_worker_manifests([])
        assert block["runs"] == 0
        assert block["workers"] == 0

    def test_aggregation(self):
        block = aggregate_worker_manifests(
            [
                {"pid": 1, "wall_seconds": 0.5, "events_executed": 100},
                {"pid": 1, "wall_seconds": 1.0, "events_executed": 200},
                {"pid": 2, "wall_seconds": 0.25, "events_executed": 50},
            ]
        )
        assert block["runs"] == 3
        assert block["workers"] == 2
        assert block["runs_by_worker"] == {"1": 2, "2": 1}
        assert block["wall_seconds_total"] == pytest.approx(1.75)
        assert block["wall_seconds_max"] == pytest.approx(1.0)
        assert block["events_executed"] == 350


def _failing_worker(config):
    raise RuntimeError(f"boom for seed {config.seed}")
