"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import build_parser, main

#: A simulated run's manifest in the layout written before its counts moved
#: to the registry snapshot alone (``repro trace --sizes 8,8 --runtime 5``,
#: trimmed): ``counters`` holds a hand-built, partly nested block.
OLD_FORMAT_MANIFEST = {
    "label": "el",
    "seed": 0,
    "config": {"technique": "el", "generation_sizes": [8, 8]},
    "code": {"package_version": "1.0.0", "python": "3.11.7"},
    "sim": {"events_executed": 2493, "heap_depth": 397, "now": 5.0},
    "counters": {
        "begun": 501,
        "blocks_written_by_generation": [45, 21],
        "committed": 372,
        "drives": [{"writes": 67, "seek_samples": 66, "utilisation": 0.335}],
        "events_executed": 2493,
        "flush": {"completed": 728, "demand_flushes": 0, "submitted": 744},
        "forwarded_records": 789,
        "fresh_records": 1689,
        "kills": 0,
        "transactions_killed": 0,
    },
    "metrics": {
        "el.kills": {"type": "counter", "value": 0},
        "log.gen0.blocks_written": {"type": "counter", "value": 45},
    },
    "trace": {"enabled": True, "events_retained": 2502},
    "wall_seconds": 0.25,
    "created_unix": 1760000000.0,
    "schema_version": 1,
}


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_SMOKE", "1")


@pytest.fixture(scope="module")
def headline_cache(tmp_path_factory):
    """One cache for the tests that need a smoke headline, not a fresh sweep."""
    return str(tmp_path_factory.mktemp("headline-cache"))


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.technique == "el"
        assert args.sizes == (18, 16)

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "99"])

    def test_jobs_rejects_zero_at_parse_time(self, capsys):
        # argparse validation errors exit with code 2, before any sweep
        # work starts (previously --jobs 0 crashed mid-run).
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["figure", "4", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "expected a value >= 1" in capsys.readouterr().err

    def test_jobs_rejects_garbage(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["figure", "4", "--jobs", "many"])
        assert excinfo.value.code == 2

    def test_shards_default_and_parse(self):
        assert build_parser().parse_args(["run"]).shards == 1
        args = build_parser().parse_args(["run", "--shards", "4"])
        assert args.shards == 4

    def test_shards_rejects_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--shards", "0"])
        assert excinfo.value.code == 2
        assert "expected a value >= 1" in capsys.readouterr().err

    def test_chaos_accepts_shards(self):
        args = build_parser().parse_args(["chaos", "--shards", "2"])
        assert args.shards == 2

    def test_technique_choices_match_enum(self):
        from repro.harness.config import Technique

        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for command in ("run", "search", "trace", "recover", "chaos"):
            technique = next(
                action
                for action in subparsers.choices[command]._actions
                if action.dest == "technique"
            )
            assert set(technique.choices) == {t.value for t in Technique}, command

    def test_jobs_default_resolved_from_env(self, monkeypatch):
        from repro.cli import _jobs

        args = build_parser().parse_args(["figure", "4"])
        assert args.jobs is None
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert _jobs(args) == 3
        assert _jobs(build_parser().parse_args(["figure", "4", "--jobs", "2"])) == 2


class TestRunCommand:
    def test_el_run_exits_zero_without_kills(self, capsys):
        code = main(["run", "--sizes", "18,16", "--runtime", "15"])
        output = capsys.readouterr().out
        assert code == 0
        assert "log bandwidth" in output
        assert "killed" in output

    def test_fw_run(self, capsys):
        code = main(
            ["run", "--technique", "fw", "--sizes", "130", "--runtime", "15"]
        )
        assert code == 0
        assert "fw" in capsys.readouterr().out

    def test_undersized_log_exits_nonzero(self, capsys):
        code = main(
            ["run", "--technique", "fw", "--sizes", "10", "--runtime", "15"]
        )
        assert code == 1

    def test_hybrid_run(self, capsys):
        code = main(
            ["run", "--technique", "hybrid", "--sizes", "24,24", "--runtime", "10"]
        )
        assert code == 0

    def test_sharded_run(self, capsys):
        code = main(
            ["run", "--sizes", "18,16", "--runtime", "10", "--shards", "2"]
        )
        assert code == 0
        assert "log bandwidth" in capsys.readouterr().out

    def test_sharded_hybrid_rejected(self, capsys):
        code = main(
            ["run", "--technique", "hybrid", "--sizes", "24,24",
             "--runtime", "10", "--shards", "2"]
        )
        assert code == 2
        assert "hybrid" in capsys.readouterr().err


class TestRecoverCommand:
    def test_recovery_verifies_ok(self, capsys):
        code = main(
            ["recover", "--sizes", "18,10", "--runtime", "20", "--crash-at", "12"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "verification         : OK" in output

    def test_sharded_recovery_verifies_ok(self, capsys):
        # Cross-shard transactions crashed between their first and last
        # durable COMMIT legally recover unacknowledged, so the sharded
        # path verifies the crash-consistency invariants instead of the
        # strict acknowledged-only diff.
        code = main(
            ["recover", "--sizes", "18,16", "--runtime", "20",
             "--crash-at", "12", "--shards", "2"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "verification         : OK" in output


class TestFigureCommand:
    def test_headline_at_smoke_scale(self, capsys, monkeypatch, headline_cache):
        # REPRO_SMOKE=1 (autouse fixture) keeps the sweep tiny.
        monkeypatch.setenv("REPRO_CACHE_DIR", headline_cache)
        code = main(["figure", "headline"])
        output = capsys.readouterr().out
        assert code == 0
        assert "space ratio" in output
        assert "[scale: smoke]" in output

    def test_no_cache_runs_each_config_once(self, capsys, monkeypatch, tmp_path):
        # headline reads the Figure 4-6 sweep twice, directly and inside
        # Figure 7.  --no-cache starts the command from an empty cache of
        # its own, so the second read replays the first one's runs, and the
        # user's cache is never written.
        from repro.harness import parallel
        from repro.harness.scale import Scale

        tiny = Scale(
            label="cli-tiny",
            runtime=20.0,
            mix_points=(0.05,),
            gen0_candidates=(16, 18),
            gen0_refine_radius=0,
        )
        monkeypatch.setattr(Scale, "from_env", classmethod(lambda cls: tiny))
        fingerprints = []
        simulate = parallel.run_simulation

        def counting(config):
            fingerprints.append(config.fingerprint())
            return simulate(config)

        monkeypatch.setattr(parallel, "run_simulation", counting)
        assert main(["figure", "headline", "--no-cache", "--jobs", "1"]) == 0
        assert "space ratio" in capsys.readouterr().out
        assert fingerprints
        assert len(fingerprints) == len(set(fingerprints))
        assert not (tmp_path / "cache").exists()

    def test_figure4_uses_cache_on_second_call(self, capsys):
        assert main(["figure", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["figure", "4"]) == 0
        second = capsys.readouterr().out
        assert "Figure 4" in first
        assert first == second  # cached result is identical

    def test_shards_gates_pass_at_smoke_scale(self, capsys):
        # Exit 0 means: 1 -> 2 shards >= 1.8x and monotone through 4 for
        # EL and FW, no failed run, no EL kill (measured 2.03x / 2.05x).
        code = main(["figure", "shards", "--jobs", "2"])
        output = capsys.readouterr().out
        assert code == 0, output
        assert "el bandwidth scaling: 1->2:" in output
        assert "x-shard" in output
        assert "GATE FAILED" not in output

    def test_shards_gate_miss_exits_one(self, monkeypatch, capsys):
        from repro.harness import experiments

        def fabricated(ratio):
            """E-shard runs whose bandwidth grows ``ratio``x per doubling."""
            from repro.harness.results import GenerationResult, SimulationResult
            from repro.harness.scale import Scale

            runs = []
            for config in experiments.shard_scaling_configs(Scale.smoke()):
                wps = 10.0 * ratio ** (config.shards.bit_length() - 1)
                result = SimulationResult(
                    technique=config.technique.value,
                    generation_sizes=list(config.generation_sizes),
                    recirculation=config.recirculation,
                    long_fraction=config.long_fraction,
                    runtime=config.runtime,
                    seed=config.seed,
                    flush_write_seconds=config.flush_write_seconds,
                    transactions_committed=100,
                )
                result.generations.append(
                    GenerationResult(sum(config.generation_sizes), 0, 0, 0, wps, 0, 0)
                )
                runs.append((config, result))
            return runs

        assert experiments.shard_scaling_failures(fabricated(2.0)) == []
        slow = fabricated(1.5)
        failures = experiments.shard_scaling_failures(slow)
        assert len(failures) == 2
        assert all("1.50x from 1 to 2 shards" in f for f in failures)
        monkeypatch.setattr(
            experiments, "run_shard_scaling", lambda *args, **kwargs: slow
        )
        assert main(["figure", "shards"]) == 1
        assert "GATE FAILED: el aggregate bandwidth scaled 1.50x" in (
            capsys.readouterr().out
        )


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, env",
        [
            (["run", "--sizes", "18,x"], {}),
            (["run", "--flush-ms", "0"], {}),
            (["recover", "--crash-at", "-1"], {}),
            (["figure", "4"], {"REPRO_RUNTIME": "abc"}),
        ],
        ids=["sizes", "flush-ms", "crash-at", "REPRO_RUNTIME"],
    )
    def test_bad_input_exits_2_with_one_error_line(
        self, argv, env, monkeypatch, capsys
    ):
        # Bad outside input is a usage error, never a traceback or a
        # failed-run exit code.
        if env:
            monkeypatch.delenv("REPRO_SMOKE")  # it would override the runtime
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports type errors this way
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1


class TestCacheCommand:
    def test_list_and_clear(self, capsys):
        assert main(["cache", "list"]) == 0
        assert main(["cache", "clear"]) == 0
        output = capsys.readouterr().out
        assert "cache directory" in output
        assert "removed" in output


class TestAdviseCommand:
    def test_advise_prints_recommendation(self, capsys):
        code = main(["advise", "--mix", "0.05"])
        output = capsys.readouterr().out
        assert code == 0
        assert "recommended sizes" in output

    def test_advise_with_validation(self, capsys):
        code = main(["advise", "--mix", "0.05", "--validate", "--runtime", "30"])
        output = capsys.readouterr().out
        assert code == 0
        assert "sustains the workload" in output

    def test_advise_three_generations(self, capsys):
        code = main(["advise", "--generations", "3"])
        assert code == 0
        assert capsys.readouterr().out.count(",") >= 2


class TestSearchCommand:
    def test_fw_search(self, capsys):
        code = main(
            ["search", "--technique", "fw", "--runtime", "15", "--mix", "0.05"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "minimum sizes" in output


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_exports_and_summarises(self, tmp_path, capsys):
        out = tmp_path / "obs"
        code = main(
            ["trace", "--sizes", "8,8", "--runtime", "10", "--out", str(out)]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert (out / "trace-el-seed0.jsonl").is_file()
        assert (out / "trace-el-seed0.manifest.json").is_file()
        assert "forward" in output
        assert "Trace events" in output


class TestReportCommand:
    def test_report_renders_trace_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "obs"
        assert (
            main(["trace", "--sizes", "8,8", "--runtime", "10", "--out", str(out)])
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "report",
                str(out / "trace-el-seed0.jsonl"),
                str(out / "trace-el-seed0.manifest.json"),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "time span" in output
        assert "Run manifest: el (seed 0)" in output
        assert "log.gen0.blocks_written" in output

    def test_report_renders_a_manifest_with_a_counters_block(self, tmp_path, capsys):
        """A manifest from before simulated runs carried their counts only
        in ``metrics``: its hand-built ``counters`` block still renders."""
        path = tmp_path / "old.manifest.json"
        path.write_text(json.dumps(OLD_FORMAT_MANIFEST))
        code = main(["report", str(path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "Run manifest: el (seed 0)" in output
        assert "  counters:" in output
        assert "forwarded_records           : 789" in output
        assert "transactions_killed         : 0" in output
        assert "log.gen0.blocks_written" in output

    def test_report_missing_file_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1


class TestFigureManifest:
    def test_manifest_dir_writes_manifest(
        self, tmp_path, capsys, monkeypatch, headline_cache
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", headline_cache)
        out = tmp_path / "manifests"
        assert main(["figure", "headline", "--manifest-dir", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        # headline pulls in the fig456 and fig7 sweeps; at least its own
        # manifest must land.
        assert any(n.startswith("manifest-headline-") for n in names)
