"""What the repository benchmark relies on, checked without running it.

The traced benchmark (``refbench/spans.py``) wraps named methods and
functions by reading ``owner.__dict__[name]``, so each name must stay
defined in its owner's own body: a rename, or moving a method to a base
class, breaks the traced run.  These tests read the benchmark's own name
lists, so they follow the benchmark when it changes.

``BENCH_trajectory.jsonl`` is the committed perf history: one line per
side (parent or change) and workload, holding the medians of the
benchmark's end-to-end metrics.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REFBENCH = ROOT / "refbench"


@pytest.fixture(scope="module")
def spans():
    """``refbench/spans.py``, imported the way ``refbench/run.py`` does."""
    sys.path.insert(0, str(REFBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(REFBENCH))


def _patched(spans):
    """``(owner, name)`` for every attribute the traced benchmark patches."""
    from repro.core.ephemeral import EphemeralLogManager
    from repro.core.flushqueue import FlushScheduler
    from repro.db.database import StableDatabase
    from repro.harness.search import SpaceSearch
    from repro.harness.simulator import Simulation
    from repro.live import clock, protocol, server, storage
    from repro.recovery.analyzer import LogScan
    from repro.recovery.single_pass import SinglePassRecovery
    from repro.sim.engine import Simulator
    from repro.workload.generator import WorkloadGenerator

    names = [(EphemeralLogManager, n) for n in spans.CORE_API + spans.CORE_EVENTS]
    names += [(FlushScheduler, n) for n in spans.FLUSH_ENTRIES + ("backlog",)]
    names += [(WorkloadGenerator, n) for n in spans.WORKLOAD_EVENTS]
    names += [(SpaceSearch, n) for n in spans.SEARCH_ENTRIES]
    names += [(protocol, n) for n in spans.CODEC + ("read_frame",)]
    names += [
        (StableDatabase, "install"),
        (Simulator, "run_until"),
        (Simulator, "at"),
        (Simulator, "after"),
        (Simulation, "__init__"),
        (Simulation, "run"),
        (LogScan, "__init__"),
        (SinglePassRecovery, "recover"),
        (server.LiveServer, "start"),
        (server.LiveServer, "_pacer_tick"),
        (clock.RealTimeScheduler, "_fire"),
        (storage.FileBackedDatabase, "install"),
        (storage, "encode_slot"),
        (storage, "os"),
        (asyncio.events.Handle, "_run"),
    ]
    return names


def test_every_patched_name_is_in_its_owners_dict(spans):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name in _patched(spans)
        if name not in vars(owner)
    ]
    assert not missing, f"the traced benchmark cannot patch: {missing}"


def test_name_lists_are_not_empty(spans):
    for names in (spans.CORE_API, spans.CORE_EVENTS, spans.FLUSH_ENTRIES,
                  spans.WORKLOAD_EVENTS, spans.SEARCH_ENTRIES, spans.CODEC):
        assert names and all(isinstance(n, str) for n in names)


TRAJECTORY = ROOT / "BENCH_trajectory.jsonl"
REQUIRED = ("workload", "medians", "runs", "nproc", "python")


def _trajectory():
    lines = TRAJECTORY.read_text().splitlines()
    assert lines, "the trajectory file is empty"
    return [json.loads(line) for line in lines]


def test_trajectory_entries_carry_the_required_fields():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    for number, entry in enumerate(_trajectory(), start=1):
        for key in REQUIRED:
            assert key in entry, f"line {number} has no {key!r}"
        assert entry["workload"] in workloads, f"line {number}"
        assert entry["medians"], f"line {number} has no medians"
        assert set(entry["medians"]) <= end_to_end, (
            f"line {number}: {sorted(set(entry['medians']) - end_to_end)} "
            f"are not BENCHMARK.json end-to-end metrics"
        )
        assert set(entry.get("quartiles", {})) <= set(entry["medians"]), f"line {number}"
        assert isinstance(entry["runs"], int) and entry["runs"] > 0, f"line {number}"
        assert isinstance(entry["nproc"], int) and entry["nproc"] > 0, f"line {number}"
        if not entry.get("backfilled"):
            # Measured entries know their interpreter; back-filled ones
            # come from prose that did not record it.
            assert isinstance(entry["python"], str), f"line {number}"


def test_trajectory_changes_point_at_a_recorded_parent():
    entries = _trajectory()
    shas = {(e["sha"], e["workload"]) for e in entries}
    for entry in entries:
        if entry["parent"] is not None:
            assert (entry["parent"], entry["workload"]) in shas, entry["label"]
