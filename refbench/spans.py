"""The traced run: spans around each layer's entry points, per-layer metrics.

Spans are patched in from this file, around the public entry points of
each layer (and the event callbacks through which the engine enters a
layer), and restored when the traced run ends; untraced runs import
nothing from here.  Each span adds its duration to its name's total and
to its parent's child time, so a layer's *self time* is its spans'
duration minus the time their child spans cover.  Spans are kept in
memory as these per-name aggregates (a sim run opens millions, too many
to keep one by one) plus raw samples where a percentile is reported, and
are written out once, at the end.

A traced run makes each phase of the workload once untraced and once
traced, so ``trace.overhead_s`` is the traced reference CPU minus the
untraced reference CPU (simulating thread plus server process).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import livework


@dataclass
class _Total:
    count: int = 0
    total_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


class Tracer:
    """Per-name span aggregates and restorable patches."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.totals: Dict[str, _Total] = {}
        self.counts: Dict[str, int] = {}
        self.samples: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self.server = None

    @property
    def spans(self) -> int:
        return sum(t.count for t in self.totals.values())

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (a function or method) in a span called ``name``."""
        original = getattr(owner, attr)
        total = self.totals.setdefault(name, _Total())
        clock = self.clock
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            stack.append(0)
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                spent = clock() - started
                child = stack.pop()
                if stack:
                    stack[-1] += spent
                total.count += 1
                total.total_ns += spent
                total.child_ns += child

        traced.__wrapped__ = original
        self._patch(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def seconds(self, *names: str, self_time: bool = False) -> float:
        totals = [self.totals[n] for n in names if n in self.totals]
        ns = sum(t.self_ns if self_time else t.total_ns for t in totals)
        return ns / 1e9

    def calls(self, *names: str) -> int:
        return sum(self.totals[n].count for n in names if n in self.totals) + sum(
            self.counts.get(n, 0) for n in names
        )


def percentile(samples: List[float], q: float) -> float:
    """Percentile of raw samples; 0 when the layer recorded none."""
    return livework.percentile(samples, q) if samples else 0.0


# ----------------------------------------------------------------------
# Layers shared by the simulator and the live server
# ----------------------------------------------------------------------

CORE_API = ("begin", "log_update", "request_commit", "abort")
CORE_EVENTS = ("_handle_block_durable", "_handle_flush_complete")
FLUSH_ENTRIES = ("submit", "cancel", "demand_flush", "_kick", "_install")


def instrument_core(tracer: Tracer) -> None:
    """Manager (EL and FW share the class), flush queue and database."""
    from repro.core.ephemeral import EphemeralLogManager
    from repro.core.flushqueue import FlushScheduler
    from repro.db.database import StableDatabase

    for name in CORE_API:
        tracer.span(EphemeralLogManager, name, f"core.{name}")
    for name in CORE_EVENTS:
        tracer.span(EphemeralLogManager, name, f"core.{name}")
    for name in FLUSH_ENTRIES:
        tracer.span(FlushScheduler, name, f"flush.{name}")
    tracer.span(FlushScheduler, "backlog", "flush.backlog")
    tracer.span(StableDatabase, "install", "db.install")


def manager_counts(manager) -> dict:
    """The counters of one EL/FW manager that the core metrics need."""
    return {
        "forwarded": manager.forwarded_records,
        "recirculated": manager.recirculated_records,
        "garbage": manager.garbage_copies_discarded,
        "blocks": sum(g.blocks_written for g in manager.generations),
        "overdrafts": sum(g.pool.overdrafts for g in manager.generations),
        "completed": manager.scheduler.completed,
        "demand": manager.scheduler.demand_flushes,
        "peak_backlog": manager.scheduler.peak_backlog,
    }


def core_metrics(tracer: Tracer, counts: List[dict], commits: int, kills: int) -> dict:
    """Per-layer metrics of ``repro.core``, generations, flush queue and db."""
    per = max(commits, 1)

    def total(key):
        return sum(c[key] for c in counts)

    core_names = [f"core.{n}" for n in CORE_API + CORE_EVENTS]
    flush_names = [f"flush.{n}" for n in FLUSH_ENTRIES] + ["flush.backlog"]
    submitted = tracer.calls("flush.submit")
    return {
        "core.calls": (tracer.calls(*[f"core.{n}" for n in CORE_API]), "count"),
        "core.self_us_per_commit": (
            1e6 * tracer.seconds(*core_names, self_time=True) / per, "us"),
        "core.forwarded_per_commit": (total("forwarded") / per, "ratio"),
        "core.recirculated_per_commit": (total("recirculated") / per, "ratio"),
        "core.garbage_per_commit": (total("garbage") / per, "ratio"),
        "core.kills": (kills, "count"),
        "gen.blocks_per_commit": (total("blocks") / per, "ratio"),
        "gen.buffer_overdrafts": (total("overdrafts"), "count"),
        "flush.submitted": (submitted, "count"),
        "flush.completed_per_submitted": (total("completed") / max(submitted, 1), "ratio"),
        "flush.demand": (total("demand"), "count"),
        "flush.peak_backlog": (max((c["peak_backlog"] for c in counts), default=0), "count"),
        "flush.self_s": (tracer.seconds(*flush_names, self_time=True), "s"),
        "flush.backlog_s": (tracer.seconds("flush.backlog"), "s"),
        "db.installs": (tracer.calls("db.install"), "count"),
        "db.install_s": (tracer.seconds("db.install"), "s"),
    }


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------

WORKLOAD_EVENTS = (
    "_arrive", "_initiate", "_write_update", "_request_commit",
    "_handle_ack", "_handle_kill",
)
SEARCH_ENTRIES = ("evaluate", "feasible", "prefetch", "minimise_dimension",
                  "fw_minimum", "el_minimum")


def instrument_sim(tracer: Tracer, runs: list) -> None:
    """Engine, workload, core, harness and recovery.

    ``runs`` collects each finished run's result and manager counters.
    """
    from repro.harness.search import SpaceSearch
    from repro.harness.simulator import Simulation
    from repro.recovery.analyzer import LogScan
    from repro.recovery.single_pass import SinglePassRecovery
    from repro.sim.engine import Simulator
    from repro.workload.generator import WorkloadGenerator

    tracer.span(Simulator, "run_until", "sim.run_until")
    tracer.count(Simulator, "at", "sim.at")
    tracer.count(Simulator, "after", "sim.after")
    for name in WORKLOAD_EVENTS:
        tracer.span(WorkloadGenerator, name, f"workload.{name}")
    instrument_core(tracer)
    tracer.span(Simulation, "__init__", "harness.build")
    for name in SEARCH_ENTRIES:
        tracer.span(SpaceSearch, name, f"harness.search.{name}")
    tracer.span(LogScan, "__init__", "recovery.scan")
    tracer.span(SinglePassRecovery, "recover", "recovery.replay")

    run = Simulation.run

    def recording_run(simulation):
        result = run(simulation)
        runs.append((result, manager_counts(simulation.manager)))
        return result

    tracer._patch(Simulation, "run", recording_run)

    recover = SinglePassRecovery.recover

    def recording_recover(recovery, *args, **kwargs):
        state = recover(recovery, *args, **kwargs)
        tracer.counts["recovery.records_applied"] = (
            tracer.counts.get("recovery.records_applied", 0) + recovery.records_applied
        )
        return state

    tracer._patch(SinglePassRecovery, "recover", recording_recover)


def sim_metrics(tracer: Tracer, runs: list) -> dict:
    results = [result for result, _ in runs]
    commits = sum(r.transactions_committed for r in results)
    search_names = [f"harness.search.{n}" for n in SEARCH_ENTRIES]
    metrics = {
        "sim.events": (sum(r.events_executed for r in results), "count"),
        "sim.schedules": (tracer.calls("sim.at", "sim.after"), "count"),
        "sim.engine_self_s": (tracer.seconds("sim.run_until", self_time=True), "s"),
        "workload.transactions": (sum(r.transactions_begun for r in results), "count"),
        "workload.self_s": (
            tracer.seconds(*[f"workload.{n}" for n in WORKLOAD_EVENTS], self_time=True),
            "s",
        ),
        **core_metrics(
            tracer,
            [counts for _, counts in runs],
            commits,
            sum(r.transactions_killed for r in results),
        ),
        "harness.runs": (len(results), "count"),
        "harness.infeasible_runs": (
            sum(1 for r in results if r.failed is not None or r.transactions_killed),
            "count",
        ),
        "harness.build_s": (tracer.seconds("harness.build"), "s"),
        "harness.search_self_s": (tracer.seconds(*search_names, self_time=True), "s"),
        "recovery.scan_s": (tracer.seconds("recovery.scan"), "s"),
        "recovery.replay_s": (tracer.seconds("recovery.replay", self_time=True), "s"),
        "recovery.records_applied": (tracer.counts.get("recovery.records_applied", 0), "count"),
    }
    return metrics


def traced_sim(technique: str) -> dict:
    """One untraced and one traced pass of each simulator phase."""
    import simwork
    from probe import Probe

    passes = {}
    runs: list = []
    tracer = Tracer()
    with Probe() as probe:
        passes["untraced"] = [
            simwork.timed(probe, n, w, technique) for n, w in simwork.PHASES
        ]
        instrument_sim(tracer, runs)
        try:
            passes["traced"] = [
                simwork.timed(probe, n, w, technique) for n, w in simwork.PHASES
            ]
        finally:
            tracer.restore()
    metrics = sim_metrics(tracer, runs)
    metrics["gen.log_bytes_per_user_byte"] = (
        simwork.log_bytes_per_user_byte(passes["untraced"][:1]), "ratio")
    return {
        **simwork.tally(passes["untraced"] + passes["traced"]),
        "metrics": metrics,
        "spans": tracer.spans,
        "overhead_s": sum(p.scaled.reference_s for p in passes["traced"])
        - sum(p.scaled.reference_s for p in passes["untraced"]),
        "detail": {k: [p.to_dict() for p in v] for k, v in passes.items()},
    }


# ----------------------------------------------------------------------
# The live server (runs inside the server process, see serve.py)
# ----------------------------------------------------------------------

CODEC = ("decode_request", "encode_begin_ok", "encode_update_ok",
         "encode_commit_ok", "encode_abort_ok", "write_frame")


class _TimedOs:
    """Stands in for ``os`` inside ``repro.live.storage``: times pwrite/fsync.

    Log blocks are written by the storage worker threads; the database's
    own pwrites run on the event loop thread and are left out.
    """

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def pwrite(self, fd, data, offset):
        if threading.current_thread() is threading.main_thread():
            return os.pwrite(fd, data, offset)
        started = time.perf_counter()
        try:
            return os.pwrite(fd, data, offset)
        finally:
            self._tracer.sample("log.pwrite", time.perf_counter() - started)

    def fsync(self, fd):
        started = time.perf_counter()
        try:
            return os.fsync(fd)
        finally:
            self._tracer.sample("log.fsync", time.perf_counter() - started)

    def __getattr__(self, name):
        return getattr(os, name)


def instrument_live(tracer: Tracer) -> None:
    """Protocol, server, storage, clock and the core layers, in the server."""
    from repro.core.ephemeral import EphemeralLogManager
    from repro.live import clock, protocol, server, storage

    for name in CODEC:
        tracer.span(protocol, name, f"live.codec.{name}")
    tracer.count(protocol, "read_frame", "live.read_frame")
    tracer.span(asyncio.events.Handle, "_run", "server.dispatch")
    tracer.span(storage, "encode_slot", "log.encode")
    tracer.span(storage.FileBackedDatabase, "install", "db.install.file")
    tracer._patch(storage, "os", _TimedOs(tracer))
    tracer.count(server.LiveServer, "_pacer_tick", "server.pacer_ticks")
    instrument_core(tracer)

    request_commit = EphemeralLogManager.request_commit

    def timed_request_commit(manager, tid, on_ack):
        requested = time.perf_counter()

        def on_durable(acked_tid, ack_time):
            tracer.sample("server.commit_wait", time.perf_counter() - requested)
            return on_ack(acked_tid, ack_time)

        return request_commit(manager, tid, on_durable)

    tracer._patch(EphemeralLogManager, "request_commit", timed_request_commit)

    fire = clock.RealTimeScheduler._fire

    def timed_fire(scheduler):
        if scheduler._armed_time is not None:
            due = scheduler._origin + scheduler._armed_time
            tracer.sample("clock.timer_lag", scheduler._loop.time() - due)
        return fire(scheduler)

    tracer._patch(clock.RealTimeScheduler, "_fire", timed_fire)

    start = server.LiveServer.start

    async def recording_start(live_server):
        tracer.server = live_server
        return await start(live_server)

    tracer._patch(server.LiveServer, "start", recording_start)


def live_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the server process, read after it stopped."""
    live_server = tracer.server
    commits = live_server.commits_acked
    fsyncs = tracer.samples.get("log.fsync", [])
    pwrites = tracer.samples.get("log.pwrite", [])
    core = core_metrics(
        tracer,
        [manager_counts(live_server.manager)],
        commits,
        live_server.kills_observed,
    )
    metrics = {
        "server.core_self_us_per_commit": core["core.self_us_per_commit"],
        "server.blocks_per_commit": core["gen.blocks_per_commit"],
        "server.db_install_s": (tracer.seconds("db.install.file"), "s"),
        "live.frames": (tracer.calls("live.read_frame", "live.codec.write_frame"), "count"),
        "live.codec_s": (tracer.seconds(*[f"live.codec.{n}" for n in CODEC]), "s"),
        "server.dispatch_self_s": (tracer.seconds("server.dispatch", self_time=True), "s"),
        "server.commit_wait_p50_ms": (
            1000.0 * percentile(tracer.samples.get("server.commit_wait", []), 50), "ms"),
        "server.pacer_ticks": (tracer.calls("server.pacer_ticks"), "count"),
        "server.rejections": (live_server.rejections, "count"),
        "log.encode_s": (tracer.seconds("log.encode"), "s"),
        "log.pwrites": (len(pwrites), "count"),
        "log.pwrite_s": (sum(pwrites), "s"),
        "log.fsyncs_per_commit": (len(fsyncs) / max(commits, 1), "ratio"),
        "log.fsync_p99_ms": (1000.0 * percentile(fsyncs, 99), "ms"),
        "clock.timer_lag_p99_ms": (
            1000.0 * percentile(tracer.samples.get("clock.timer_lag", []), 99), "ms"),
        "trace.spans": (tracer.spans, "count"),
    }
    return {name: list(value) for name, value in metrics.items()}


def traced(technique: str, live_seconds: float, seed: int, work) -> dict:
    """The workload's phases untraced, then traced, with the same inputs."""
    sim = traced_sim(technique)
    plain = livework.run_live(technique, live_seconds, seed, work, launches=1)
    trace_out = work.with_name(work.name + "-trace.json")
    try:
        live = livework.run_live(
            technique, live_seconds, seed, work, trace_out=trace_out, launches=1
        )
        server = {k: tuple(v) for k, v in json.loads(trace_out.read_text()).items()}
    finally:
        trace_out.unlink(missing_ok=True)
    detail = live["detail"]
    server_spans = server.pop("trace.spans")[0]
    metrics = {
        **sim["metrics"],
        **server,
        "driver.commit_p50_ms": (detail["commit_p50_ms"], "ms"),
        "driver.commit_p99_ms": (detail["commit_p99_ms"], "ms"),
        "driver.late_p99_ms": (detail["late_p99_ms"], "ms"),
        "driver.outstanding_peak": (detail["outstanding_peak"], "count"),
        "trace.spans": (sim["spans"] + server_spans, "count"),
        "trace.overhead_s": (
            sim["overhead_s"]
            + detail["window_cpu"]["reference_s"]
            - plain["detail"]["window_cpu"]["reference_s"],
            "s",
        ),
    }
    return {
        "ok": sim["ok"] and plain["ok"] and live["ok"],
        "attempted": sim["attempted"] + plain["attempted"] + live["attempted"],
        "failed": sim["failed"] + plain["failed"] + live["failed"],
        "metrics": metrics,
        "detail": {
            "sim": sim["detail"],
            "sim_spans": sim["spans"],
            "live_untraced": plain["detail"],
            "live_traced": detail,
            "server_spans": server_spans,
        },
    }
