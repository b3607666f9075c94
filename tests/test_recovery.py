"""Tests for log scanning, single/two-pass recovery and verification."""

from __future__ import annotations

import pytest

from repro.db.objects import ObjectVersion
from repro.disk.block import BlockAddress, BlockImage
from repro.records.data import DataLogRecord
from repro.records.tx import AbortRecord, BeginRecord, CommitRecord
from repro.recovery.analyzer import LogScan
from repro.recovery.single_pass import SinglePassRecovery
from repro.recovery.two_pass import TwoPassRecovery
from repro.recovery.verify import RecoveryVerifier
from repro.workload.generator import AckedUpdate


def image(slot: int, *records) -> BlockImage:
    img = BlockImage(BlockAddress(0, slot), 4000)
    for record in records:
        img.add(record)
    img.seal()
    return img


def data(lsn, tid, oid, value, timestamp) -> DataLogRecord:
    return DataLogRecord(lsn, tid, timestamp, 100, oid, value)


class TestLogScan:
    def test_commit_set(self):
        images = [
            image(0, BeginRecord(0, 1, 0.0), data(1, 1, 5, 50, 0.1)),
            image(1, CommitRecord(2, 1, 0.2), BeginRecord(3, 2, 0.3)),
        ]
        scan = LogScan(images)
        assert scan.committed_tids == {1}
        assert scan.loser_tids() == {2}

    def test_duplicates_deduplicated_by_lsn(self):
        record = data(1, 1, 5, 50, 0.1)
        copy = data(1, 1, 5, 50, 0.1)  # recirculated physical copy
        scan = LogScan([image(0, record), image(1, copy)])
        assert scan.unique_records == 1
        assert scan.duplicate_copies == 1

    def test_abort_outranks_commit(self):
        images = [image(0, CommitRecord(0, 1, 0.1), AbortRecord(1, 1, 0.2))]
        assert LogScan(images).committed_tids == set()

    def test_committed_data_records_in_temporal_order(self):
        images = [
            image(
                0,
                data(3, 1, 5, 52, 0.3),  # later record first physically
                data(1, 1, 5, 51, 0.1),
                CommitRecord(4, 1, 0.4),
            )
        ]
        ordered = LogScan(images).committed_data_records()
        assert [r.value for r in ordered] == [51, 52]

    def test_records_sorted_by_lsn(self):
        images = [image(0, data(2, 1, 1, 1, 0.2), data(0, 1, 2, 2, 0.0))]
        assert [r.lsn for r in LogScan(images).records()] == [0, 2]


class TestSinglePass:
    def test_applies_only_committed(self):
        images = [
            image(0, data(0, 1, 5, 50, 0.1), CommitRecord(1, 1, 0.2)),
            image(1, data(2, 2, 6, 60, 0.3)),  # tx 2 never committed
        ]
        recovery = SinglePassRecovery(images)
        state = recovery.recover()
        assert state[5].value == 50
        assert 6 not in state
        assert recovery.records_skipped_loser == 1

    def test_newest_version_wins_regardless_of_scan_order(self):
        images = [
            image(0, data(5, 1, 7, 99, 2.0), CommitRecord(6, 1, 2.1)),
            image(1, data(0, 2, 7, 11, 0.5), CommitRecord(1, 2, 0.6)),
        ]
        state = SinglePassRecovery(images).recover()
        assert state[7].value == 99

    def test_stable_database_seeds_state(self):
        stable = {3: ObjectVersion(33, 5.0, 100)}
        images = [image(0, data(0, 1, 3, 11, 0.5), CommitRecord(1, 1, 0.6))]
        state = SinglePassRecovery(images).recover(stable)
        assert state[3].value == 33  # stable copy is newer than the log record

    def test_input_not_mutated(self):
        stable = {3: ObjectVersion(1, 0.0, 0)}
        images = [image(0, data(5, 1, 4, 44, 1.0), CommitRecord(6, 1, 1.1))]
        SinglePassRecovery(images).recover(stable)
        assert set(stable) == {3}

    def test_empty_log(self):
        assert SinglePassRecovery([]).recover() == {}

    def test_timestamp_tie_broken_by_lsn(self):
        images = [
            image(
                0,
                data(0, 1, 9, 10, 1.0),
                data(1, 1, 9, 20, 1.0),  # same timestamp, higher lsn
                CommitRecord(2, 1, 1.1),
            )
        ]
        state = SinglePassRecovery(images).recover()
        assert state[9].value == 20


class TestTwoPassAgreement:
    def _random_images(self, seed: int) -> list:
        import random

        rng = random.Random(seed)
        lsn = 0
        images = []
        current = []
        for tid in range(1, 12):
            current.append(BeginRecord(lsn, tid, lsn * 0.01))
            lsn += 1
            for _ in range(rng.randrange(0, 4)):
                current.append(
                    data(lsn, tid, rng.randrange(8), rng.randrange(100), lsn * 0.01)
                )
                lsn += 1
            if rng.random() < 0.7:
                current.append(CommitRecord(lsn, tid, lsn * 0.01))
                lsn += 1
            if len(current) > 5:
                images.append(image(len(images), *current))
                current = []
        if current:
            images.append(image(len(images), *current))
        return images

    @pytest.mark.parametrize("seed", range(8))
    def test_single_and_two_pass_agree(self, seed):
        images = self._random_images(seed)
        single = SinglePassRecovery(images).recover()
        double = TwoPassRecovery(images).recover()
        assert single == double

    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_with_stable_seed(self, seed):
        images = self._random_images(seed)
        stable = {0: ObjectVersion(123, 0.035, 3)}
        assert (
            SinglePassRecovery(images).recover(stable)
            == TwoPassRecovery(images).recover(stable)
        )


class TestVerifier:
    def test_matching_state_passes(self):
        acked = [AckedUpdate(oid=1, value=10, timestamp=0.5, lsn=0, ack_time=1.0)]
        verifier = RecoveryVerifier(acked)
        result = verifier.verify(2.0, {1: ObjectVersion(10, 0.5, 0)})
        assert result.ok

    def test_missing_update_detected(self):
        acked = [AckedUpdate(oid=1, value=10, timestamp=0.5, lsn=0, ack_time=1.0)]
        result = RecoveryVerifier(acked).verify(2.0, {})
        assert not result.ok
        assert result.mismatches == [(1, 10, None)]

    def test_unexpected_object_detected(self):
        result = RecoveryVerifier([]).verify(2.0, {9: ObjectVersion(1, 0.1, 0)})
        assert not result.ok
        assert result.mismatches == [(9, None, 1)]

    def test_updates_acked_after_crash_excluded(self):
        acked = [AckedUpdate(oid=1, value=10, timestamp=0.5, lsn=0, ack_time=5.0)]
        result = RecoveryVerifier(acked).verify(2.0, {})
        assert result.ok

    def test_newest_acked_update_expected(self):
        acked = [
            AckedUpdate(oid=1, value=10, timestamp=0.5, lsn=0, ack_time=1.0),
            AckedUpdate(oid=1, value=20, timestamp=1.5, lsn=5, ack_time=2.0),
        ]
        verifier = RecoveryVerifier(acked)
        expected = verifier.expected_state(3.0)
        assert expected[1].value == 20
        assert verifier.verify(3.0, {1: ObjectVersion(20, 1.5, 5)}).ok


class TestRecoveryCostTracksLogSize:
    """E7: "less disk space means faster recovery", measured end to end.

    EL (18, 16) and FW 123 run the paper's 5 % mix and crash at 0.8 x the
    runtime; both must recover exactly the acknowledged state, and EL's
    durable log must be the smaller one to scan.
    """

    def test_el_log_smaller_and_both_recover_exactly(self):
        from repro.harness.config import SimulationConfig
        from repro.harness.simulator import Simulation

        runtime, crash_time = 25.0, 20.0
        durable_blocks = {}
        for name, config in (
            ("el", SimulationConfig.ephemeral(
                (18, 16), recirculation=False, runtime=runtime, collect_truth=True
            )),
            ("fw", SimulationConfig.firewall(
                123, runtime=runtime, collect_truth=True
            )),
        ):
            simulation = Simulation(config)
            simulation.run_until(crash_time)
            log = simulation.capture_durable_log()
            recovery = SinglePassRecovery(log)
            state = recovery.recover(simulation.capture_stable_database())
            verdict = RecoveryVerifier(simulation.generator.acked_updates).verify(
                crash_time, state
            )
            assert verdict.ok, (name, verdict.mismatches[:5])
            assert recovery.records_applied > 0
            durable_blocks[name] = len(log)
        assert durable_blocks["el"] < durable_blocks["fw"]
