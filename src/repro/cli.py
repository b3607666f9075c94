"""Command-line interface.

Examples::

    repro run --technique el --sizes 18,16 --no-recirculation --runtime 120
    repro search --technique fw --mix 0.05 --runtime 120 --jobs 4
    repro figure 4 --jobs 4   # also 5, 6, 7, scarce, headline, shards
    repro trace --runtime 60 --out results/
    repro report results/trace-el-seed0.jsonl
    repro recover --crash-at 40 --runtime 60
    repro chaos --technique el --rate 0.1 --crashes 3 --runtime 60
    repro cache clear

Each ``_cmd_*`` handler imports what it runs, so ``repro serve`` never
loads the simulator and no command pays for another's dependencies.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from repro import __version__
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.harness.config import SimulationConfig
    from repro.harness.sweep import SweepCache
    from repro.workload.spec import SkewSpec

#: ``Technique`` values, spelled out so building the parser imports no
#: simulator code (a test keeps the two in step).
TECHNIQUES = ("el", "fw", "hybrid")


def _positive_int(text: str) -> int:
    """argparse type for options that must be >= 1 (e.g. --jobs, --shards)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a value >= 1, got {value}")
    return value


def _sizes(text: str) -> tuple[int, ...]:
    """argparse type for --sizes: comma-separated block counts (e.g. 18,16)."""
    sizes = tuple(_positive_int(part) for part in text.split(",") if part)
    if not sizes:
        raise argparse.ArgumentTypeError("expected at least one generation size")
    return sizes


def _skew_spec(text: str) -> SkewSpec:
    """argparse type for --skew HOT_FRACTION:HOT_PROBABILITY (e.g. 0.01:0.9)."""
    from repro.workload.spec import SkewSpec

    try:
        return SkewSpec.parse(text)
    except Exception as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_float(text: str) -> float:
    """argparse type for options that must be > 0 (durations, rates)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a value > 0, got {value}")
    return value


def _port(text: str) -> int:
    """argparse type for a connectable TCP port (1-65535)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 1 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"port must be in 1..65535, got {value}")
    return value


def _listen_port(text: str) -> int:
    """argparse type for a listening port (0 = OS-assigned ephemeral)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"port must be in 0..65535, got {value}")
    return value


def _base_config(args: argparse.Namespace) -> SimulationConfig:
    from repro.harness.config import SimulationConfig, Technique

    technique = Technique(args.technique)
    sizes = args.sizes
    if technique is Technique.FIREWALL:
        sizes = sizes[:1]
    return SimulationConfig(
        technique=technique,
        generation_sizes=sizes,
        recirculation=(
            technique is not Technique.FIREWALL and not args.no_recirculation
        ),
        long_fraction=args.mix,
        runtime=args.runtime,
        seed=args.seed,
        flush_write_seconds=args.flush_ms / 1000.0,
        shards=getattr(args, "shards", 1),
        skew=getattr(args, "skew", None),
    )


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--technique", choices=TECHNIQUES, default="el"
    )
    parser.add_argument(
        "--sizes",
        type=_sizes,
        default="18,16",
        help="comma-separated generation sizes in blocks (FW uses the first)",
    )
    parser.add_argument("--no-recirculation", action="store_true")
    parser.add_argument(
        "--mix", type=float, default=0.05, help="fraction of 10s transactions"
    )
    parser.add_argument("--runtime", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--flush-ms",
        type=_positive_float,
        default=25.0,
        help="flush transfer time (ms)",
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="independent log shards with cross-shard group commit "
        "(default: 1, the single-disk managers)",
    )
    parser.add_argument(
        "--skew",
        type=_skew_spec,
        default=None,
        metavar="FRAC:PROB",
        help="hot-set oid skew, e.g. 0.01:0.9 = 90%% of updates hit the "
        "hottest 1%% of objects (default: the paper's uniform draw)",
    )


def _add_jobs_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes for independent runs (default: $REPRO_JOBS or 1)",
    )


def _jobs(args: argparse.Namespace) -> int:
    """``--jobs``, or the ``$REPRO_JOBS`` default when it was not given."""
    if args.jobs is not None:
        return args.jobs
    from repro.harness.parallel import default_jobs

    return default_jobs()


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.simulator import run_simulation

    result = run_simulation(_base_config(args))
    print(f"technique            : {result.technique}")
    print(f"generation sizes     : {result.generation_sizes}")
    print(f"recirculation        : {result.recirculation}")
    print(f"transactions         : {result.transactions_begun} begun, "
          f"{result.transactions_committed} committed, "
          f"{result.transactions_killed} killed")
    print(f"log bandwidth        : {result.total_bandwidth_wps:.2f} writes/s "
          f"({', '.join(f'{g.bandwidth_wps:.2f}' for g in result.generations)})")
    print(f"forwarded/recirc     : {result.forwarded_records} / "
          f"{result.recirculated_records} records")
    print(f"flushes              : {result.flushes_completed} scheduled, "
          f"{result.demand_flushes} on demand, peak backlog "
          f"{result.flush_peak_backlog}")
    print(f"mean flush seek      : {result.flush_mean_seek_distance:,.0f} oid units")
    print(f"memory peak          : {result.memory_peak_bytes} bytes")
    print(f"mean commit latency  : {result.mean_commit_latency*1000:.1f} ms")
    if result.failed:
        print(f"FAILED               : {result.failed}")
    return 0 if result.no_kills else 1


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.harness.config import Technique
    from repro.harness.parallel import ParallelRunner
    from repro.harness.scale import Scale
    from repro.harness.search import SpaceSearch

    config = _base_config(args)
    with ParallelRunner(jobs=_jobs(args)) as runner:
        search = SpaceSearch(config, parallel=runner)
        if config.technique is Technique.FIREWALL:
            outcome = search.fw_minimum()
        else:
            scale = Scale.from_env()
            outcome = search.el_minimum(
                scale.gen0_candidates, refine_radius=scale.gen0_refine_radius
            )
    print(f"minimum sizes        : {outcome.sizes} "
          f"({outcome.total_blocks} blocks total)")
    print(f"bandwidth at minimum : {outcome.result.total_bandwidth_wps:.2f} writes/s")
    print(f"memory peak          : {outcome.result.memory_peak_bytes} bytes")
    print(f"search runs          : {outcome.runs}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    import tempfile

    from repro.harness.sweep import SweepCache

    if not args.no_cache:
        return _figure(args, SweepCache())
    # The command's own empty cache: the user's is neither read nor written,
    # and the figures one command computes still share their runs.
    with tempfile.TemporaryDirectory(prefix="repro-figure-") as directory:
        return _figure(args, SweepCache(Path(directory)))


def _figure(args: argparse.Namespace, cache: "SweepCache") -> int:
    from repro.harness.experiments import (
        headline_claims,
        run_figure_7,
        run_figures_4_5_6,
        run_scarce_flush,
        run_shard_scaling,
        shard_scaling_failures,
        shard_scaling_text,
    )
    from repro.harness.scale import Scale

    scale = Scale.from_env()
    manifest_dir = args.manifest_dir
    jobs = _jobs(args)
    which = args.which
    failures: List[str] = []
    if which in ("4", "5", "6"):
        result = run_figures_4_5_6(
            scale, seed=args.seed, cache=cache, manifest_dir=manifest_dir, jobs=jobs
        )
        text = {
            "4": result.figure4_text,
            "5": result.figure5_text,
            "6": result.figure6_text,
        }[which]()
    elif which == "7":
        text = run_figure_7(
            scale, seed=args.seed, cache=cache, manifest_dir=manifest_dir, jobs=jobs
        ).figure7_text()
    elif which == "scarce":
        text = run_scarce_flush(
            scale, seed=args.seed, cache=cache, manifest_dir=manifest_dir, jobs=jobs
        ).text()
    elif which == "headline":
        text = headline_claims(
            scale, seed=args.seed, cache=cache, manifest_dir=manifest_dir, jobs=jobs
        ).text()
    elif which == "shards":
        runs = run_shard_scaling(
            scale, seed=args.seed, cache=cache, manifest_dir=manifest_dir, jobs=jobs
        )
        text = shard_scaling_text(runs)
        failures = shard_scaling_failures(runs)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(which)
    print(f"[scale: {scale.label}]")
    print(text)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one observed simulation: JSONL trace + manifest + summary."""
    from repro.harness.simulator import Simulation
    from repro.metrics.report import format_trace_summary
    from repro.obs import ObsConfig
    from repro.obs.events import event_time_span, summarise_events

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"trace-{args.technique}-seed{args.seed}"
    jsonl_path = out_dir / f"{stem}.jsonl"
    manifest_path = out_dir / f"{stem}.manifest.json"
    config = _base_config(args).replace(
        obs=ObsConfig.full(
            jsonl_path=str(jsonl_path),
            manifest_path=str(manifest_path),
            strict_schema=args.strict_schema,
        )
    )
    simulation = Simulation(config)
    result = simulation.run()
    events = list(simulation.obs.trace)
    print(format_trace_summary(summarise_events(events)))
    if events:
        span = event_time_span(events)
        print(f"time span      : t={span[0]:g}s .. t={span[1]:g}s")
    print(f"trace written  : {jsonl_path}")
    print(f"manifest       : {manifest_path}")
    print(
        f"transactions   : {result.transactions_begun} begun, "
        f"{result.transactions_committed} committed, "
        f"{result.transactions_killed} killed"
    )
    if result.failed:
        print(f"FAILED         : {result.failed}")
    return 0 if result.failed is None else 1


def _looks_like_manifest(path: Path) -> bool:
    if path.suffix == ".jsonl":
        return False
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return False
    return isinstance(data, dict) and "schema_version" in data


def _cmd_report(args: argparse.Namespace) -> int:
    """Summarise previously exported traces and manifests."""
    from repro.metrics.report import format_manifest, format_trace_summary
    from repro.obs.events import event_time_span, read_jsonl, summarise_events
    from repro.obs.manifest import RunManifest

    status = 0
    for index, name in enumerate(args.paths):
        path = Path(name)
        if index:
            print()
        if not path.is_file():
            print(f"{path}: not a file", file=sys.stderr)
            status = 1
            continue
        try:
            if _looks_like_manifest(path):
                print(format_manifest(RunManifest.load(path).to_dict()))
                continue
            events = read_jsonl(path)
        except ConfigurationError as exc:
            print(f"{exc}", file=sys.stderr)
            status = 1
            continue
        if not events:
            print(f"{path}: no events")
            continue
        print(format_trace_summary(summarise_events(events), title=str(path)))
        span = event_time_span(events)
        print(f"time span: t={span[0]:g}s .. t={span[1]:g}s")
    return status


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.harness.simulator import Simulation
    from repro.recovery.single_pass import SinglePassRecovery
    from repro.recovery.verify import RecoveryVerifier

    config = _base_config(args).replace(collect_truth=True)
    simulation = Simulation(config)
    simulation.run_until(args.crash_at)
    images = simulation.capture_durable_log()
    stable = simulation.capture_stable_database()
    recovery = SinglePassRecovery(images)
    recovered = recovery.recover(stable)
    verifier = RecoveryVerifier(simulation.generator.acked_updates)
    print(f"crash at             : t={args.crash_at:.2f}s")
    print(f"durable log blocks   : {len(images)}")
    print(f"stable DB objects    : {len(stable)}")
    print(f"records applied      : {recovery.records_applied}")
    print(f"loser records skipped: {recovery.records_skipped_loser}")
    if config.shards > 1:
        # A cross-shard transaction crashed between its first and last
        # durable COMMIT recovers as committed without ever having been
        # acknowledged — legal, so the strict acknowledged-only diff does
        # not apply.  Check the crash-consistency invariants instead:
        # no lost acknowledged update, no unexplained recovered value.
        report = verifier.check_crash_consistency(
            args.crash_at, recovered, scan=recovery.scan, stable=stable
        )
        print(f"expected objects     : {report.expected_objects}")
        print(f"verification         : {'OK' if report.ok else 'FAILED'}")
        for oid, expected, got in report.lost_updates[:10]:
            print(f"  lost oid={oid}: acknowledged {expected}, recovered {got}")
        for oid, got in report.phantom_objects[:10]:
            print(f"  phantom oid={oid}: recovered {got}")
        return 0 if report.ok else 1
    verdict = verifier.verify(args.crash_at, recovered)
    print(f"expected objects     : {verdict.expected_objects}")
    print(f"verification         : {'OK' if verdict.ok else 'FAILED'}")
    for oid, expected, got in verdict.mismatches[:10]:
        print(f"  mismatch oid={oid}: expected {expected}, recovered {got}")
    return 0 if verdict.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injected run with crash-consistency verification."""
    from repro.faults.crash import run_crash_consistency
    from repro.faults.plan import FaultPlan

    config = _base_config(args)
    crash_times = tuple(
        config.runtime * (index + 1) / (args.crashes + 1)
        for index in range(args.crashes)
    )
    plan = FaultPlan(
        transient_write_rate=args.rate,
        torn_write_rate=args.rate / 2.0,
        latent_error_rate=args.rate / 10.0,
        flush_fault_rate=args.rate,
        crash_times=crash_times,
        max_retries=args.max_retries,
    )
    report = run_crash_consistency(config.replace(faults=plan))
    result = report.result
    assert result is not None
    print(f"technique            : {report.technique} (seed {report.seed})")
    print(f"fault rate           : {args.rate:g} "
          f"(torn {args.rate/2:g}, latent {args.rate/10:g})")
    for check in report.checks:
        verdict = "OK" if check.report.ok else (
            f"{len(check.report.lost_updates)} lost, "
            f"{len(check.report.phantom_objects)} phantom"
        )
        print(f"crash at t={check.time:<8.2f}: {check.captured_blocks} blocks "
              f"({check.report.unreadable_blocks} unreadable, "
              f"{check.report.corrupt_blocks} torn), "
              f"{check.records_applied} records applied -> {verdict}")
    faults = result.faults or {}
    print(f"transactions         : {result.transactions_committed} committed, "
          f"{result.transactions_killed} killed, "
          f"{result.transactions_unfinished} unfinished")
    print(f"write faults         : {faults.get('write_faults', 0)} "
          f"({faults.get('write_retries', 0)} retries, "
          f"{faults.get('failed_writes', 0)} hard failures)")
    print(f"self-healing         : {faults.get('blocks_retired', 0)} blocks "
          f"remapped, {faults.get('records_healed', 0)} records healed, "
          f"{faults.get('records_stabilised', 0)} stabilised")
    print(f"deferred acks        : {faults.get('deferred_acks', 0)} "
          f"({faults.get('outstanding_holds', 0)} holds outstanding)")
    print(f"flush requeues       : {faults.get('flush_requeues', 0)}")
    print(f"crash consistency    : "
          f"{'OK' if report.ok else f'{report.violations} VIOLATIONS'}")
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report written       : {path}")
    return 0 if report.ok else 1


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.sizing import recommend_generation_sizes
    from repro.workload.spec import paper_mix

    mix = paper_mix(args.mix)
    advice = recommend_generation_sizes(
        mix,
        args.rate,
        generations=args.generations,
        recirculation_headroom=1.0 if args.no_recirculation else 0.5,
    )
    print(f"workload             : {mix!r} at {args.rate:g} TPS")
    print(f"recommended sizes    : {list(advice.generation_sizes)} blocks "
          f"({advice.total_blocks} total)")
    print(f"modelled residencies : "
          f"{', '.join(f'{r:.2f}s' for r in advice.residencies)}")
    print(f"modelled inflow      : "
          f"{', '.join(f'{b:,.0f} B/s' for b in advice.inflow_bytes_per_second)}")
    if args.validate:
        from repro.harness.config import SimulationConfig
        from repro.harness.simulator import run_simulation

        result = run_simulation(
            SimulationConfig.ephemeral(
                advice.generation_sizes,
                recirculation=not args.no_recirculation,
                long_fraction=args.mix,
                arrival_rate=args.rate,
                runtime=args.runtime,
            )
        )
        verdict = "sustains the workload" if result.no_kills else (
            f"KILLED {result.transactions_killed} transactions"
        )
        print(f"validation ({args.runtime:g}s) : {verdict}, "
              f"{result.total_bandwidth_wps:.2f} writes/s")
        return 0 if result.no_kills else 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the live append/commit service until SIGTERM or --duration."""
    import asyncio

    from repro.live.server import LiveServer

    server = LiveServer(
        args.log_dir,
        technique=args.technique,
        generation_sizes=args.sizes,
        shards=args.shards,
        host=args.host,
        port=args.port,
        num_objects=args.num_objects,
        max_inflight=args.max_inflight,
    )

    async def _serve() -> None:
        task = asyncio.ensure_future(server.run(duration=args.duration))
        # Wait for the listener so the port announcement is accurate.
        while server._server is None and not task.done():
            await asyncio.sleep(0.01)
        if not task.done():
            print(
                f"serving {args.technique} on {server.host}:{server.port} "
                f"(log dir {server.log_dir})",
                flush=True,
            )
        await task

    asyncio.run(_serve())
    manager = server.manager
    print(f"begun                : {manager.begun_count}")
    print(f"commits acked        : {server.commits_acked}")
    print(f"aborted              : {server.aborts}")
    print(f"killed               : {server.kills_observed}")
    print(f"rejected             : {server.rejections}")
    print(f"log blocks written   : {manager.log_blocks_written()}")
    print(f"log fsyncs           : {server.metrics.get('log.fsyncs').value}")
    print(f"manifest             : {server.log_dir / 'server-manifest.json'}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a live server with a closed-loop workload and report latency."""
    import asyncio

    from repro.live.loadgen import LoadGenerator

    gen = LoadGenerator(
        args.host,
        args.port,
        duration=args.duration,
        target_tps=args.tps,
        connections=args.connections,
        updates_per_tx=args.updates_per_tx,
        update_size_bytes=args.size,
        num_objects=args.num_objects,
        skew=args.skew,
        seed=args.seed,
    )
    report = asyncio.run(gen.run())
    latency = report.commit_latency.snapshot()

    def fmt(value):
        return f"{value * 1000:.2f} ms" if value is not None else "n/a"

    print(f"duration             : {report.duration:.2f}s")
    print(f"committed            : {report.committed} ({report.tps:.1f} TPS)")
    print(f"killed               : {report.killed}")
    print(f"rejected             : {report.rejected}")
    print(f"errors               : {report.errors} "
          f"({report.protocol_errors} protocol)")
    print(f"commit latency       : p50 {fmt(latency['p50'])}, "
          f"p95 {fmt(latency['p95'])}, p99 {fmt(latency['p99'])}")
    if args.manifest:
        gen.write_manifest(args.manifest)
        print(f"manifest             : {args.manifest}")
    return 0 if report.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.harness.sweep import SweepCache

    cache = SweepCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
    else:
        directory = cache.directory
        files = sorted(directory.glob("*.json")) if directory.is_dir() else []
        print(f"cache directory: {directory} ({len(files)} entries)")
        for path in files:
            print(f"  {path.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Performance Evaluation of Ephemeral Logging' "
            "(Keen & Dally, SIGMOD 1993)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one simulation")
    _add_run_options(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    search_parser = sub.add_parser("search", help="minimum-space search")
    _add_run_options(search_parser)
    _add_jobs_option(search_parser)
    search_parser.set_defaults(func=_cmd_search)

    figure_parser = sub.add_parser("figure", help="reproduce a paper artifact")
    figure_parser.add_argument(
        "which", choices=["4", "5", "6", "7", "scarce", "headline", "shards"]
    )
    figure_parser.add_argument("--seed", type=int, default=0)
    figure_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="start the command from an empty cache (yours is left untouched)",
    )
    figure_parser.add_argument(
        "--manifest-dir",
        default=None,
        help="also write a reproducibility manifest into this directory",
    )
    _add_jobs_option(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    trace_parser = sub.add_parser(
        "trace", help="run one simulation with full observability"
    )
    _add_run_options(trace_parser)
    trace_parser.add_argument(
        "--out", default="results", help="directory for the JSONL trace + manifest"
    )
    trace_parser.add_argument(
        "--strict-schema",
        action="store_true",
        help="fail on trace events missing from the schema registry",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    report_parser = sub.add_parser(
        "report", help="summarise exported traces and run manifests"
    )
    report_parser.add_argument(
        "paths", nargs="+", help="JSONL trace and/or manifest JSON files"
    )
    report_parser.set_defaults(func=_cmd_report)

    recover_parser = sub.add_parser("recover", help="crash + recovery demo")
    _add_run_options(recover_parser)
    recover_parser.add_argument("--crash-at", type=_positive_float, default=40.0)
    recover_parser.set_defaults(func=_cmd_recover)

    chaos_parser = sub.add_parser(
        "chaos", help="fault-injected run + crash-consistency verification"
    )
    _add_run_options(chaos_parser)
    chaos_parser.add_argument(
        "--rate",
        type=float,
        default=0.05,
        help="transient write-fault rate; torn/latent/flush rates derive from it",
    )
    chaos_parser.add_argument(
        "--crashes", type=int, default=3, help="evenly spaced crash checks"
    )
    chaos_parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="write retry budget; 0 makes every fault a hard failure",
    )
    chaos_parser.add_argument(
        "--json", default=None, help="also write the full chaos report here"
    )
    chaos_parser.set_defaults(func=_cmd_chaos)

    advise_parser = sub.add_parser(
        "advise", help="recommend generation sizes for a workload (§6 tool)"
    )
    advise_parser.add_argument("--mix", type=float, default=0.05)
    advise_parser.add_argument("--rate", type=float, default=100.0)
    advise_parser.add_argument("--generations", type=int, default=2)
    advise_parser.add_argument("--no-recirculation", action="store_true")
    advise_parser.add_argument("--validate", action="store_true")
    advise_parser.add_argument("--runtime", type=float, default=60.0)
    advise_parser.set_defaults(func=_cmd_advise)

    serve_parser = sub.add_parser(
        "serve", help="run the live append/commit service (real time, real files)"
    )
    serve_parser.add_argument(
        "--technique", choices=["el", "fw"], default="el"
    )
    serve_parser.add_argument(
        "--sizes",
        type=_sizes,
        default="128,128",
        help="generation sizes in blocks (FW uses the first); live default "
        "128,128 = 1 MB of preallocated log per shard",
    )
    serve_parser.add_argument("--shards", type=_positive_int, default=1)
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=_listen_port,
        default=0,
        help="listening port (default 0: OS-assigned, printed at startup)",
    )
    serve_parser.add_argument(
        "--log-dir",
        default="results/live",
        help="directory for the preallocated log files, database and manifest",
    )
    serve_parser.add_argument(
        "--duration",
        type=_positive_float,
        default=None,
        help="serve for this many seconds then drain (default: until SIGTERM)",
    )
    serve_parser.add_argument(
        "--num-objects", type=_positive_int, default=1_000_000
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=256,
        help="admission limit on begun-but-unresolved transactions",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    loadgen_parser = sub.add_parser(
        "loadgen", help="closed-loop load generator for a live server"
    )
    loadgen_parser.add_argument("--host", default="127.0.0.1")
    loadgen_parser.add_argument("--port", type=_port, required=True)
    loadgen_parser.add_argument(
        "--duration", type=_positive_float, default=10.0
    )
    loadgen_parser.add_argument(
        "--tps",
        type=_positive_float,
        default=200.0,
        help="target aggregate transaction rate",
    )
    loadgen_parser.add_argument(
        "--connections", type=_positive_int, default=8
    )
    loadgen_parser.add_argument(
        "--updates-per-tx", type=_positive_int, default=2
    )
    loadgen_parser.add_argument(
        "--size", type=_positive_int, default=100, help="update size in bytes"
    )
    loadgen_parser.add_argument(
        "--num-objects",
        type=_positive_int,
        default=1_000_000,
        help="oid space to draw from (must not exceed the server's)",
    )
    loadgen_parser.add_argument(
        "--skew",
        type=_skew_spec,
        default=None,
        metavar="FRAC:PROB",
        help="hot-set oid skew, e.g. 0.01:0.9 (default: uniform)",
    )
    loadgen_parser.add_argument("--seed", type=int, default=1)
    loadgen_parser.add_argument(
        "--manifest", default=None, help="write a run manifest to this path"
    )
    loadgen_parser.set_defaults(func=_cmd_loadgen)

    cache_parser = sub.add_parser("cache", help="inspect or clear the sweep cache")
    cache_parser.add_argument("action", choices=["list", "clear"])
    cache_parser.set_defaults(func=_cmd_cache)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        # A bad flag combination (e.g. --technique hybrid --shards 2) is a
        # usage error, not a crash: report it like argparse would.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
