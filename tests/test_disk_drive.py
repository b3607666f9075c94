"""Tests for the single-request disk drive model."""

from __future__ import annotations

import pytest

from repro.disk.drive import DiskDrive
from repro.disk.stats import DriveStats
from repro.errors import SimulationError


class TestDiskDrive:
    def test_write_takes_service_time(self, sim):
        drive = DiskDrive(sim, 0, 0.025)
        done = []
        drive.write(42, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.025]

    def test_busy_during_service(self, sim):
        drive = DiskDrive(sim, 0, 0.025)
        drive.write(1, lambda: None)
        assert drive.busy
        with pytest.raises(SimulationError):
            drive.write(2, lambda: None)

    def test_idle_after_completion(self, sim):
        drive = DiskDrive(sim, 0, 0.025)
        drive.write(1, lambda: None)
        sim.run()
        assert not drive.busy

    def test_position_updated_on_completion(self, sim):
        drive = DiskDrive(sim, 0, 0.01)
        assert drive.position is None
        drive.write(7, lambda: None)
        assert drive.position is None  # not until the write completes
        sim.run()
        assert drive.position == 7

    def test_stats_accumulate(self, sim):
        drive = DiskDrive(sim, 0, 0.01)
        drive.write(1, lambda: None, seek_distance=None)
        sim.run()
        drive.write(5, lambda: None, seek_distance=4)
        sim.run()
        assert drive.stats.writes == 2
        assert drive.stats.seek_samples == 1
        assert drive.stats.mean_seek_distance == 4.0
        assert drive.stats.busy_seconds == pytest.approx(0.02)

    def test_non_positive_write_time_rejected(self, sim):
        with pytest.raises(SimulationError):
            DiskDrive(sim, 0, 0.0)

    def test_back_to_back_writes(self, sim):
        drive = DiskDrive(sim, 0, 0.01)
        completions = []

        def chain():
            completions.append(sim.now)
            if len(completions) < 3:
                drive.write(len(completions), chain)

        drive.write(0, chain)
        sim.run()
        assert completions == pytest.approx([0.01, 0.02, 0.03])


class TestDriveStats:
    def test_mean_seek_distance_zero_samples(self):
        assert DriveStats().mean_seek_distance == 0.0

    def test_none_seek_distance_not_counted(self):
        # The first write to a drive has no predecessor; it must not drag
        # the mean toward zero.
        stats = DriveStats()
        stats.record_write(0.01, None)
        stats.record_write(0.01, 10)
        stats.record_write(0.01, 20)
        assert stats.writes == 3
        assert stats.seek_samples == 2
        assert stats.mean_seek_distance == pytest.approx(15.0)
