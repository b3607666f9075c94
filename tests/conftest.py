"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools

import pytest

from repro.core.ephemeral import EphemeralLogManager
from repro.core.firewall import FirewallLogManager
from repro.db.database import StableDatabase
from repro.faults.plan import FaultPlan
from repro.records.base import next_lsn_factory
from repro.records.data import DataLogRecord
from repro.records.tx import BeginRecord, CommitRecord
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> SimRng:
    return SimRng(12345)


@pytest.fixture
def lsn():
    return next_lsn_factory()


class ScriptedFaults:
    """Duck-typed injector whose flush decisions follow a script."""

    enabled = True
    injects_log_writes = False
    injects_latent = False
    injects_flush = True
    checksum_blocks = False

    def __init__(self, script, max_retries=1):
        self.script = list(script)
        self.plan = FaultPlan(max_retries=max_retries)

    def flush_write_fails(self, drive_index):
        return self.script.pop(0) if self.script else False


def make_data_record(lsn: int = 0, tid: int = 1, timestamp: float = 0.0,
                     size: int = 100, oid: int = 7, value: int = 42) -> DataLogRecord:
    return DataLogRecord(lsn, tid, timestamp, size, oid, value)


def make_begin(lsn: int = 0, tid: int = 1, timestamp: float = 0.0) -> BeginRecord:
    return BeginRecord(lsn, tid, timestamp)


def make_commit(lsn: int = 0, tid: int = 1, timestamp: float = 0.0) -> CommitRecord:
    return CommitRecord(lsn, tid, timestamp)


class ManualHarness:
    """A log manager wired for direct, hand-driven unit tests.

    Uses a small object space and fast disks so tests stay quick; exposes
    helpers that run one transaction's whole life.
    """

    def __init__(
        self,
        technique: str = "el",
        generation_sizes=(8, 8),
        recirculation: bool = True,
        num_objects: int = 1000,
        payload_bytes: int = 400,
        flush_write_seconds: float = 0.005,
        **kwargs,
    ):
        self.sim = Simulator()
        self.database = StableDatabase(num_objects)
        if technique == "fw":
            self.manager = FirewallLogManager(
                self.sim,
                self.database,
                log_blocks=generation_sizes[0],
                flush_drives=2,
                flush_write_seconds=flush_write_seconds,
                payload_bytes=payload_bytes,
                **kwargs,
            )
        else:
            self.manager = EphemeralLogManager(
                self.sim,
                self.database,
                generation_sizes=list(generation_sizes),
                recirculation=recirculation,
                flush_drives=2,
                flush_write_seconds=flush_write_seconds,
                payload_bytes=payload_bytes,
                **kwargs,
            )
        self.acks: list[tuple[int, float]] = []
        self.kills: list[tuple[int, float]] = []
        self.manager.on_kill = lambda tid, t: self.kills.append((tid, t))
        self._tid = itertools.count(1)
        self._value = itertools.count(100)

    def begin(self, expected_lifetime=None) -> int:
        tid = next(self._tid)
        self.manager.begin(tid, expected_lifetime=expected_lifetime)
        return tid

    def update(self, tid: int, oid: int, size: int = 100) -> int:
        value = next(self._value)
        self.manager.log_update(tid, oid, value, size)
        return value

    def commit(self, tid: int) -> None:
        self.manager.request_commit(tid, lambda t, when: self.acks.append((t, when)))

    def settle(self, seconds: float = 1.0) -> None:
        """Let pending writes/flushes complete."""
        self.sim.run_until(self.sim.now + seconds)

    def run_one_transaction(self, oids=(1, 2), size: int = 100) -> int:
        tid = self.begin()
        for oid in oids:
            self.update(tid, oid, size=size)
        self.commit(tid)
        self.manager.drain()
        self.settle()
        return tid

    def acked(self, tid: int) -> bool:
        return any(t == tid for t, _ in self.acks)


@pytest.fixture
def harness() -> ManualHarness:
    return ManualHarness()
