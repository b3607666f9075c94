"""Behavioural tests for fault injection: disk layer, healing, results."""

from __future__ import annotations

import pytest

from repro.core.ephemeral import EphemeralLogManager
from repro.disk.block import BlockAddress, BlockImage
from repro.disk.circular import CircularBlockArray
from repro.disk.drive import DiskDrive
from repro.errors import ConfigurationError, LogFullError, SimulationError
from repro.faults.plan import FaultKind, FaultPlan
from repro.harness.config import SimulationConfig
from repro.harness.results import SimulationResult
from repro.harness.simulator import run_simulation
from repro.records.data import DataLogRecord

from tests.conftest import ScriptedFaults


def _image(*records, slot=0, capacity=2000):
    img = BlockImage(BlockAddress(0, slot), capacity)
    for record in records:
        img.add(record)
    return img


def _data(lsn, oid=1, value=10):
    return DataLogRecord(lsn, 1, 0.0, 100, oid, value)


class TestBlockChecksums:
    def test_checksum_round_trip(self):
        image = _image(_data(0), _data(1, oid=2))
        assert image.checksum is None
        assert image.checksum_ok()  # no checksum recorded => trusted
        image.record_checksum()
        assert image.checksum is not None
        assert image.checksum_ok()

    def test_torn_copy_detected_by_checksum(self):
        image = _image(_data(0), _data(1, oid=2), _data(2, oid=3))
        image.record_checksum()
        torn = image.torn_copy(1)
        assert len(torn.records) == 1
        assert torn.checksum == image.checksum  # full-set checksum survives
        assert not torn.checksum_ok()

    def test_complete_torn_copy_passes(self):
        # A "torn" copy that kept every record is indistinguishable from
        # the real write — and harmless, because it *is* the real content.
        image = _image(_data(0), _data(1, oid=2))
        image.record_checksum()
        assert image.torn_copy(2).checksum_ok()

    def test_unreadable_flag_starts_false(self):
        assert _image(_data(0)).unreadable is False


class TestCircularRetire:
    def test_retire_shrinks_usable_capacity(self):
        array = CircularBlockArray(6)
        array.retire(3)
        assert array.usable_capacity == 5
        assert array.retired_slots == (3,)
        assert array.free == 5

    def test_retired_slot_skipped_by_tail(self):
        array = CircularBlockArray(4)
        array.retire(1)
        slots = [array.reserve_tail() for _ in range(3)]
        assert 1 not in slots
        assert array.full

    def test_retire_in_use_slot_freed_later(self):
        array = CircularBlockArray(4)
        first = array.reserve_tail()
        array.reserve_tail()
        array.retire(first)  # retire while still holding data
        assert array.used == 2
        assert array.free_head() == first  # drains normally...
        slots = [array.reserve_tail() for _ in range(array.free)]
        assert first not in slots  # ...but is never reused

    def test_retire_is_idempotent(self):
        array = CircularBlockArray(4)
        array.retire(2)
        array.retire(2)
        assert array.usable_capacity == 3

    def test_cannot_retire_last_usable_slot(self):
        array = CircularBlockArray(2)
        array.retire(0)
        with pytest.raises(LogFullError):
            array.retire(1)

    def test_retire_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            CircularBlockArray(4).retire(7)

    def test_wraparound_with_retired_slot(self):
        array = CircularBlockArray(3)
        array.retire(1)
        seen = []
        for _ in range(6):
            seen.append(array.reserve_tail())
            array.free_head()
        assert 1 not in seen
        assert set(seen) == {0, 2}


class TestDriveFaults:
    def test_transient_flush_fault_retried_in_place(self, sim):
        faults = ScriptedFaults([True, False], max_retries=1)
        drive = DiskDrive(sim, 0, 0.01, faults=faults)
        done = []
        drive.write(5, lambda: done.append(sim.now), on_fault=lambda f: None)
        sim.run()
        # One failed attempt + backoff + one good attempt.
        assert done == [pytest.approx(0.01 + 0.002 + 0.01)]
        assert drive.stats.faults == 1
        assert drive.stats.writes == 1

    def test_exhausted_retries_surface_typed_fault(self, sim):
        faults = ScriptedFaults([True, True], max_retries=1)
        drive = DiskDrive(sim, 0, 0.01, faults=faults)
        seen = []
        drive.write(5, lambda: seen.append("ok"), on_fault=seen.append)
        sim.run()
        assert len(seen) == 1
        fault = seen[0]
        assert fault.kind is FaultKind.FLUSH_WRITE
        assert fault.attempts == 2
        assert not drive.busy  # usable again after the failure

    def test_fault_without_handler_is_an_error(self, sim):
        faults = ScriptedFaults([True, True], max_retries=1)
        drive = DiskDrive(sim, 0, 0.01, faults=faults)
        drive.write(5, lambda: None)
        with pytest.raises(SimulationError):
            sim.run()


class TestManagerSelfHealing:
    def _run(self, plan, technique="el", runtime=20.0, **kwargs):
        if technique == "fw":
            config = SimulationConfig.firewall(
                30, runtime=runtime, faults=plan, **kwargs
            )
        else:
            config = SimulationConfig.ephemeral(
                (18, 16), runtime=runtime, faults=plan, **kwargs
            )
        return run_simulation(config)

    def test_transient_faults_retried_without_damage(self):
        result = self._run(FaultPlan(transient_write_rate=0.1))
        faults = result.faults
        assert faults is not None
        assert faults["write_faults"] > 0
        assert faults["write_retries"] == faults["write_faults"]
        assert faults["failed_writes"] == 0
        assert faults["outstanding_holds"] == 0
        assert faults["stranded_holds"] == 0
        assert result.transactions_committed > 0

    def test_hard_failures_heal_and_remap(self):
        # No retry budget: every injected write fault is a hard failure.
        result = self._run(
            FaultPlan(transient_write_rate=0.15, max_retries=0)
        )
        faults = result.faults
        assert faults["failed_writes"] > 0
        assert faults["blocks_retired"] > 0
        assert sum(len(s) for s in faults["retired_by_generation"]) == (
            faults["blocks_retired"]
        )
        assert faults["stranded_holds"] == 0
        assert result.failed is None
        assert result.transactions_committed > 0

    @pytest.mark.parametrize("rate", [0.10, 0.15])
    def test_rings_at_the_safety_floor_do_not_re_migrate(self, rate, monkeypatch):
        # Hard failures remap both rings down to the safety floor.  From
        # there each head record must still take one fate (forward,
        # recirculate, demand-flush or kill), not move again and again:
        # migrations stay within 10x the fault-free run's.  Nor may a live
        # record stay behind at a slot the head has freed: the tail may
        # reuse that slot, and a COMMIT_PENDING record left there could
        # have its commit acknowledged while its only log copy is
        # overwritten.
        left_behind = []
        route = EphemeralLogManager._route_head_records

        def holder(generation, address):
            for buffer in (generation.current, generation.migration):
                if buffer is not None and buffer.image is not None:
                    if buffer.image.address == address:
                        return buffer.image
            return generation.logical.get(address.slot)

        def checked_route(manager, gen_index, image):
            route(manager, gen_index, image)
            for record in image.records:
                cell = record.cell
                if cell is None or cell.address != image.address:
                    continue
                block = holder(manager.generations[gen_index], image.address)
                if block is None or all(r is not record for r in block.records):
                    left_behind.append(record.lsn)

        fault_free = run_simulation(SimulationConfig.ephemeral((18, 16), runtime=20.0))
        monkeypatch.setattr(EphemeralLogManager, "_route_head_records", checked_route)
        result = self._run(FaultPlan(transient_write_rate=rate, max_retries=0))
        faults = result.faults
        assert faults["degraded_generations"] == [0, 1]
        migrations = (
            result.forwarded_records
            + result.recirculated_records
            + faults["records_healed"]
        )
        assert migrations <= 10 * fault_free.forwarded_records
        assert left_behind == []
        assert faults["stranded_holds"] == 0
        assert result.failed is None

    def test_latent_errors_healed(self):
        result = self._run(
            FaultPlan(latent_error_rate=0.2, latent_delay_seconds=1.0)
        )
        faults = result.faults
        assert faults["latent_faults"] > 0
        assert faults["stranded_holds"] == 0
        assert result.transactions_committed > 0

    def test_flush_faults_requeue(self):
        result = self._run(
            FaultPlan(flush_fault_rate=0.3, max_retries=0)
        )
        faults = result.faults
        assert faults["flush_requeues"] > 0
        assert result.transactions_committed > 0

    def test_firewall_manager_heals_too(self):
        result = self._run(
            FaultPlan(transient_write_rate=0.15, max_retries=0),
            technique="fw",
        )
        faults = result.faults
        assert faults["failed_writes"] > 0
        assert faults["stranded_holds"] == 0
        assert result.failed is None
        assert result.transactions_committed > 0

    def test_heavy_pressure_degrades_not_dies(self):
        # A tiny log under sustained hard failures retires blocks down to
        # the safety floor, then degrades to demand-flushing — it must
        # keep committing rather than collapse.
        config = SimulationConfig.ephemeral(
            (6, 6),
            runtime=20.0,
            faults=FaultPlan(transient_write_rate=0.3, max_retries=0),
        )
        result = run_simulation(config)
        faults = result.faults
        assert result.failed is None
        assert result.transactions_committed > 0
        assert faults["blocks_retired"] > 0 or faults["degraded_generations"]

    def test_fault_free_result_has_no_fault_block(self):
        result = run_simulation(
            SimulationConfig.ephemeral((18, 16), runtime=10.0)
        )
        assert result.faults is None
        assert "faults" not in result.to_dict()

    def test_result_round_trip_with_faults(self):
        result = self._run(FaultPlan(transient_write_rate=0.1), runtime=10.0)
        document = result.to_dict()
        assert "faults" in document
        recalled = SimulationResult.from_dict(document)
        assert recalled.faults == result.faults
        assert recalled.to_dict() == document
