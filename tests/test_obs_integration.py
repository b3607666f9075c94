"""End-to-end observability: run → JSONL + manifest → re-parse → report.

The acceptance path: a quickstart-scale simulation with observability on
must export a trace containing the hot-path event kinds (forward,
recirculate, demand_flush, kill) and a manifest carrying per-generation
block-write counters, and both must round-trip through the parsing and
rendering used by ``repro report``.
"""

from __future__ import annotations

import time

import pytest

from repro.harness.config import SimulationConfig
from repro.harness.simulator import Simulation, run_simulation
from repro.metrics.report import format_manifest, format_trace_summary
from repro.obs import ObsConfig, read_jsonl, summarise_events
from repro.obs.manifest import RunManifest


@pytest.fixture(scope="module")
def observed_run(tmp_path_factory):
    """One undersized EL run with everything on (kills are guaranteed)."""
    out = tmp_path_factory.mktemp("obs")
    jsonl_path = out / "run.jsonl"
    manifest_path = out / "run.manifest.json"
    config = SimulationConfig.ephemeral(
        generation_sizes=(8, 8),
        recirculation=True,
        long_fraction=0.05,
        runtime=20.0,
        obs=ObsConfig.full(
            jsonl_path=str(jsonl_path),
            manifest_path=str(manifest_path),
            strict_schema=True,  # every emitted event must be in the schema
        ),
    )
    simulation = Simulation(config)
    result = simulation.run()
    return simulation, result, jsonl_path, manifest_path


class TestTraceExport:
    def test_files_written(self, observed_run):
        simulation, _, jsonl_path, manifest_path = observed_run
        assert jsonl_path.is_file()
        assert manifest_path.is_file()
        assert simulation.manifest is not None

    def test_hot_path_kinds_round_trip(self, observed_run):
        _, result, jsonl_path, _ = observed_run
        assert result.transactions_killed > 0  # undersized on purpose
        events = read_jsonl(jsonl_path)
        kinds = {(e.source, e.kind) for e in events}
        for expected in (
            ("el", "forward"),
            ("el", "recirculate"),
            ("el", "demand_flush"),
            ("el", "kill"),
            ("log", "block_write"),
            ("run", "begin"),
            ("run", "end"),
        ):
            assert expected in kinds, f"missing {expected}"

    def test_export_is_complete(self, observed_run):
        simulation, _, jsonl_path, _ = observed_run
        events = read_jsonl(jsonl_path)
        assert simulation.obs.trace.events_written == len(events)
        # The unbounded in-memory stream saw the same events.
        assert len(simulation.obs.trace) == len(events)

    def test_kill_count_matches_result(self, observed_run):
        _, result, jsonl_path, _ = observed_run
        counts = summarise_events(read_jsonl(jsonl_path))
        assert counts[("el", "kill")] == result.transactions_killed

    def test_summary_renders(self, observed_run):
        _, _, jsonl_path, _ = observed_run
        text = format_trace_summary(summarise_events(read_jsonl(jsonl_path)))
        assert "recirculate" in text
        assert "kill" in text


class TestManifestRoundTrip:
    def test_manifest_reloads_equal(self, observed_run):
        simulation, _, _, manifest_path = observed_run
        loaded = RunManifest.load(manifest_path)
        assert loaded == simulation.manifest

    def test_per_generation_block_counters(self, observed_run):
        _, result, _, manifest_path = observed_run
        manifest = RunManifest.load(manifest_path)
        blocks = manifest.counters["blocks_written_by_generation"]
        assert len(blocks) == 2
        assert all(b > 0 for b in blocks)
        assert blocks == [g.blocks_written for g in result.generations]
        # The metrics registry agrees with the manager's own counters.
        for index, expected in enumerate(blocks):
            metric = manifest.metrics[f"log.gen{index}.blocks_written"]
            assert metric["value"] == expected

    def test_config_and_seed_captured(self, observed_run):
        simulation, _, _, manifest_path = observed_run
        manifest = RunManifest.load(manifest_path)
        assert manifest.seed == simulation.config.seed
        assert manifest.config["generation_sizes"] == [8, 8]
        assert manifest.config["technique"] == "el"
        assert manifest.sim["events_executed"] > 0
        assert manifest.trace["jsonl_events_written"] == len(simulation.obs.trace)

    def test_manifest_renders(self, observed_run):
        _, _, _, manifest_path = observed_run
        text = format_manifest(RunManifest.load(manifest_path).to_dict())
        assert "Run manifest: el" in text
        assert "blocks_written_by_generation" in text
        assert "el.kills" in text


class TestDisabledByDefault:
    def test_no_obs_config_means_everything_off(self):
        config = SimulationConfig.ephemeral((18, 16), runtime=5.0)
        simulation = Simulation(config)
        result = simulation.run()
        assert result.transactions_committed > 0
        assert simulation.manifest is None
        assert not simulation.obs.trace.enabled
        assert not simulation.obs.metrics.enabled
        assert len(simulation.obs.trace) == 0

    def test_firewall_namespace(self, tmp_path):
        jsonl_path = tmp_path / "fw.jsonl"
        config = SimulationConfig.firewall(
            log_blocks=40,
            runtime=10.0,
            obs=ObsConfig(jsonl_path=str(jsonl_path), metrics=True),
        )
        result = Simulation(config).run()
        events = read_jsonl(jsonl_path)
        sources = {e.source for e in events}
        assert "fw" in sources
        assert "el" not in sources  # FW runs emit under their own namespace
        kinds = {e.kind for e in events if e.source == "fw"}
        assert "space_reclaim" in kinds
        assert result.transactions_begun > 0


class TestOverhead:
    def test_enabled_path_costs_under_25x(self, tmp_path):
        """A tripwire against accidental quadratic cost in the obs layer.

        The same 30 s EL run with observability off and fully on (trace +
        metrics + JSONL export); best-of-3 wall time each, the off side
        measured before and after to bound clock noise.
        """

        def best_wall(config) -> float:
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                assert run_simulation(config).transactions_committed > 0
                best = min(best, time.perf_counter() - started)
            return best

        base = SimulationConfig.ephemeral((18, 16), runtime=30.0)
        disabled = best_wall(base)
        enabled = best_wall(
            base.replace(
                obs=ObsConfig.full(
                    jsonl_path=str(tmp_path / "overhead.jsonl"),
                    manifest_path=str(tmp_path / "overhead.manifest.json"),
                )
            )
        )
        disabled = min(disabled, best_wall(base))
        assert enabled < disabled * 25.0
