"""Crash capture, crash-consistency classification, and chaos runs."""

from __future__ import annotations

import json
import random

import pytest

from repro.db.objects import ObjectVersion
from repro.disk.block import BlockAddress, BlockImage
from repro.errors import ConfigurationError
from repro.faults import crash
from repro.faults.crash import (
    acks_can_lag,
    capture_crash_images,
    check_crash,
    run_crash_consistency,
)
from repro.faults.plan import FaultPlan
from repro.harness.config import SimulationConfig
from repro.harness.simulator import Simulation
from repro.records.data import DataLogRecord
from repro.records.tx import BeginRecord, CommitRecord
from repro.recovery.analyzer import LogScan
from repro.recovery.single_pass import SinglePassRecovery
from repro.recovery.verify import RecoveryVerifier
from repro.workload.generator import AckedUpdate


def image(slot: int, *records, seal: bool = True) -> BlockImage:
    img = BlockImage(BlockAddress(0, slot), 4000)
    for record in records:
        img.add(record)
    if seal:
        img.seal()
    return img


def data(lsn, tid, oid, value, timestamp) -> DataLogRecord:
    return DataLogRecord(lsn, tid, timestamp, 100, oid, value)


def acked(oid, value, timestamp, lsn, ack_time) -> AckedUpdate:
    return AckedUpdate(oid, value, timestamp, lsn, ack_time)


def version(value, timestamp, lsn) -> ObjectVersion:
    return ObjectVersion(value, timestamp, lsn)


class TestCrashConsistencyClassification:
    """Synthetic lost/phantom cases, independent of the simulator."""

    def test_clean_recovery_is_ok(self):
        verifier = RecoveryVerifier([acked(1, 10, 0.1, 0, 0.2)])
        report = verifier.check_crash_consistency(
            1.0, {1: version(10, 0.1, 0)}
        )
        assert report.ok
        assert report.violations == 0

    def test_missing_acked_update_is_lost(self):
        verifier = RecoveryVerifier([acked(1, 10, 0.1, 0, 0.2)])
        report = verifier.check_crash_consistency(1.0, {})
        assert report.lost_updates == [(1, 10, None)]
        assert not report.ok

    def test_stale_acked_update_is_lost_not_phantom(self):
        verifier = RecoveryVerifier(
            [acked(1, 10, 0.1, 0, 0.2), acked(1, 11, 0.3, 5, 0.4)]
        )
        report = verifier.check_crash_consistency(
            1.0, {1: version(10, 0.1, 0)}
        )
        assert report.lost_updates == [(1, 11, 10)]
        assert report.phantom_objects == []
        # An older version is stale even when it carries the same value.
        verifier = RecoveryVerifier(
            [acked(1, 10, 0.1, 0, 0.2), acked(1, 10, 0.3, 5, 0.4)]
        )
        report = verifier.check_crash_consistency(
            1.0, {1: version(10, 0.1, 0)}
        )
        assert report.lost_updates == [(1, 10, 10)]

    def test_unexplained_recovered_object_is_phantom(self):
        verifier = RecoveryVerifier([])
        report = verifier.check_crash_consistency(
            1.0, {9: version(99, 0.5, 7)}
        )
        assert report.phantom_objects == [(9, 99)]

    def test_newer_version_allowed_when_durably_committed(self):
        # The commit was durable but its ack was deferred behind a
        # fault-healing hold: recovering the *newer* value is legal.
        verifier = RecoveryVerifier([acked(1, 10, 0.1, 0, 0.2)])
        scan = LogScan(
            [
                image(
                    0,
                    BeginRecord(3, 2, 0.3),
                    data(4, 2, 1, 12, 0.4),
                    CommitRecord(5, 2, 0.5),
                )
            ]
        )
        report = verifier.check_crash_consistency(
            1.0, {1: version(12, 0.4, 4)}, scan=scan
        )
        assert report.ok

    def test_stable_database_explains_recovered_value(self):
        verifier = RecoveryVerifier([])
        report = verifier.check_crash_consistency(
            1.0,
            {3: version(30, 0.2, 2)},
            stable={3: version(30, 0.2, 2)},
        )
        assert report.ok

    def test_uncommitted_durable_record_does_not_explain(self):
        # A loser transaction's record in the log must not license its
        # value appearing in the recovered state.
        verifier = RecoveryVerifier([])
        scan = LogScan(
            [image(0, BeginRecord(0, 2, 0.1), data(1, 2, 3, 30, 0.2))]
        )
        report = verifier.check_crash_consistency(
            1.0, {3: version(30, 0.2, 1)}, scan=scan
        )
        assert report.phantom_objects == [(3, 30)]

    def test_report_to_dict(self):
        verifier = RecoveryVerifier([acked(1, 10, 0.1, 0, 0.2)])
        doc = verifier.check_crash_consistency(1.0, {}).to_dict()
        assert doc["ok"] is False
        assert doc["lost_updates"] == [[1, 10, None]]
        assert doc["crash_time"] == 1.0


class TestFaultAwareLogScan:
    def test_unreadable_blocks_filtered_and_counted(self):
        good = image(0, BeginRecord(0, 1, 0.0), data(1, 1, 5, 50, 0.1),
                     CommitRecord(2, 1, 0.2))
        bad = image(1, BeginRecord(3, 2, 0.3), data(4, 2, 6, 60, 0.4),
                    CommitRecord(5, 2, 0.5))
        bad.unreadable = True
        scan = LogScan([good, bad])
        assert scan.unreadable_blocks == 1
        assert scan.committed_tids == {1}

    def test_torn_block_filtered_by_checksum(self):
        whole = image(0, BeginRecord(0, 1, 0.0), data(1, 1, 5, 50, 0.1),
                      CommitRecord(2, 1, 0.2), seal=False)
        whole.record_checksum()
        torn = whole.torn_copy(1)
        scan = LogScan([torn])
        assert scan.corrupt_blocks == 1
        assert scan.committed_tids == set()

    def test_recovery_skips_filtered_blocks(self):
        whole = image(0, BeginRecord(0, 1, 0.0), data(1, 1, 5, 50, 0.1),
                      CommitRecord(2, 1, 0.2), seal=False)
        whole.record_checksum()
        recovery = SinglePassRecovery([whole.torn_copy(1)])
        recovered = recovery.recover({})
        assert recovered == {}
        assert recovery.scan.corrupt_blocks == 1


class TestCaptureCrashImages:
    def _simulation(self, plan):
        config = SimulationConfig.ephemeral(
            (18, 16), runtime=10.0, faults=plan, collect_truth=True
        )
        simulation = Simulation(config)
        simulation.run_until(5.0)
        return simulation

    def test_in_flight_writes_leave_torn_prefixes(self):
        plan = FaultPlan(crash_times=(5.0,))
        simulation = self._simulation(plan)
        durable = list(simulation.capture_durable_log())
        captured = capture_crash_images(
            simulation, random.Random("tear")
        )
        in_flight = sum(
            len(g.in_flight) for g in simulation.manager.generations
        )
        extras = len(captured) - len(durable)
        assert 0 <= extras <= in_flight  # empty in-flight blocks skipped

    def test_torn_on_crash_false_drops_in_flight(self):
        plan = FaultPlan(crash_times=(5.0,), torn_on_crash=False)
        simulation = self._simulation(plan)
        captured = capture_crash_images(simulation, random.Random("tear"))
        assert len(captured) == len(list(simulation.capture_durable_log()))


class TestRunCrashConsistency:
    def test_requires_crash_times(self):
        config = SimulationConfig.ephemeral(
            (18, 16), runtime=10.0, faults=FaultPlan(transient_write_rate=0.1)
        )
        with pytest.raises(ConfigurationError):
            run_crash_consistency(config)
        with pytest.raises(ConfigurationError):
            run_crash_consistency(
                SimulationConfig.ephemeral((18, 16), runtime=10.0)
            )

    def test_el_chaos_run_has_zero_violations(self):
        config = SimulationConfig.ephemeral(
            (18, 16),
            runtime=30.0,
            faults=FaultPlan(
                transient_write_rate=0.08,
                torn_write_rate=0.04,
                latent_error_rate=0.02,
                flush_fault_rate=0.08,
                crash_times=(7.0, 15.0, 23.0),
            ),
        )
        report = run_crash_consistency(config)
        assert len(report.checks) == 3
        assert report.ok, [c.report for c in report.checks]
        assert report.result is not None
        assert report.result.transactions_committed > 0
        assert report.technique == "el"

    def test_fw_chaos_run_has_zero_violations(self):
        config = SimulationConfig.firewall(
            34,
            runtime=30.0,
            faults=FaultPlan(
                transient_write_rate=0.08,
                torn_write_rate=0.04,
                crash_times=(10.0, 20.0),
            ),
        )
        report = run_crash_consistency(config)
        assert len(report.checks) == 2
        assert report.ok, [c.report for c in report.checks]

    def test_crash_points_beyond_runtime_skipped(self):
        config = SimulationConfig.ephemeral(
            (18, 16),
            runtime=10.0,
            faults=FaultPlan(crash_times=(4.0, 50.0)),
        )
        report = run_crash_consistency(config)
        assert [check.time for check in report.checks] == [4.0]

    def test_report_document_shape(self):
        config = SimulationConfig.ephemeral(
            (18, 16),
            runtime=10.0,
            faults=FaultPlan(transient_write_rate=0.05, crash_times=(5.0,)),
        )
        doc = run_crash_consistency(config).to_dict()
        assert doc["ok"] is True
        assert doc["violations"] == 0
        assert len(doc["checks"]) == 1
        assert doc["checks"][0]["report"]["crash_time"] == 5.0
        assert doc["result"]["transactions_committed"] > 0

    def test_crash_checks_do_not_perturb_the_run(self):
        # A crash-only plan never enables the injector's write/latent
        # streams, and snapshots are observational — so counters match a
        # run whose plan schedules no crashes at all... and the plain run.
        from repro.harness.simulator import run_simulation

        chaos_config = SimulationConfig.ephemeral(
            (18, 16), runtime=20.0, faults=FaultPlan(crash_times=(5.0, 15.0))
        )
        plain = run_simulation(
            SimulationConfig.ephemeral((18, 16), runtime=20.0)
        )
        report = run_crash_consistency(chaos_config)
        assert report.ok
        assert (
            report.result.transactions_committed
            == plain.transactions_committed
        )
        assert report.result.events_executed == plain.events_executed


class TestStrictness:
    """Whether the log and stable DB may explain a version is the run's."""

    def test_derived_from_the_run(self):
        plain = SimulationConfig.ephemeral((18, 16), runtime=10.0)
        assert not acks_can_lag(plain)
        assert acks_can_lag(plain.replace(shards=2))
        assert acks_can_lag(plain.replace(faults=FaultPlan(crash_times=(5.0,))))
        assert acks_can_lag(None)  # a live run

    def test_strict_run_rejects_an_unacknowledged_version(self):
        # Recovered from the log, but never acknowledged: a fault-free
        # unsharded run acknowledges at durability, so this is a phantom.
        commit = image(
            0, BeginRecord(0, 1, 0.0), data(1, 1, 5, 50, 0.1),
            CommitRecord(2, 1, 0.2),
        )
        plain = SimulationConfig.ephemeral((18, 16), runtime=10.0)
        strict = check_crash([commit], {}, [], 1.0, plain)
        assert strict.report.phantom_objects == [(5, 50)]
        relaxed = check_crash([commit], {}, [], 1.0, plain.replace(shards=2))
        assert relaxed.report.ok

    def test_log_essential_counts_what_the_stable_db_lacks(self):
        acked_updates = [
            acked(1, 10, 0.1, 0, 0.2),  # installed
            acked(2, 20, 0.1, 1, 0.2),  # stable copy is older
            acked(3, 30, 0.1, 2, 0.2),  # never installed
            acked(4, 40, 0.1, 3, 2.0),  # acknowledged after the crash
        ]
        stable = {1: version(10, 0.1, 0), 2: version(19, 0.05, 9)}
        check = check_crash([], stable, acked_updates, 1.0)
        assert check.log_essential == 2
        assert len(check.report.lost_updates) == 2


CI_CHAOS_RUNS = {
    "el": ["--technique", "el", "--rate", "0.12", "--crashes", "3",
           "--runtime", "40"],
    "fw": ["--technique", "fw", "--rate", "0.12", "--crashes", "3",
           "--runtime", "40"],
    "el-2-shards": ["--technique", "el", "--rate", "0.1", "--crashes", "3",
                    "--runtime", "40", "--shards", "2"],
}


class TestPlantedBugs:
    """The CI chaos gates fail when recovery is handed a broken log.

    Each run's crash points all hold log-essential updates, so a recovery
    that ignores the log must lose exactly those.
    """

    def _chaos(self, tmp_path, name, capsys):
        from repro.cli import main

        path = tmp_path / f"{name}.json"
        code = main(["chaos", *CI_CHAOS_RUNS[name], "--json", str(path)])
        capsys.readouterr()
        document = json.loads(path.read_text())
        assert code == (0 if document["ok"] else 1)
        return document

    @pytest.mark.parametrize("name", sorted(CI_CHAOS_RUNS))
    def test_unbroken_run_rests_on_the_log(self, tmp_path, name, capsys):
        document = self._chaos(tmp_path, name, capsys)
        assert document["ok"]
        assert all(check["log_essential"] > 0 for check in document["checks"])

    @pytest.mark.parametrize("name", sorted(CI_CHAOS_RUNS))
    def test_recovery_without_the_log_loses_the_log_essential(
        self, tmp_path, name, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            crash, "capture_crash_images", lambda simulation, torn_rng=None: []
        )
        document = self._chaos(tmp_path, name, capsys)
        assert not document["ok"]
        for check in document["checks"]:
            assert check["log_essential"] > 0
            assert len(check["report"]["lost_updates"]) == check["log_essential"]
            assert check["report"]["phantom_objects"] == []

    @pytest.mark.parametrize("name", sorted(CI_CHAOS_RUNS))
    def test_dropping_the_newest_durable_block_is_caught(
        self, tmp_path, name, capsys, monkeypatch
    ):
        capture = crash.capture_crash_images

        def drop_newest(simulation, torn_rng=None):
            images = capture(simulation, torn_rng)
            newest = max(
                (image for image in images if image.write_lsn is not None),
                key=lambda image: image.write_lsn,
            )
            return [image for image in images if image is not newest]

        monkeypatch.setattr(crash, "capture_crash_images", drop_newest)
        document = self._chaos(tmp_path, name, capsys)
        assert document["violations"] > 0
