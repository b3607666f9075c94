"""Tests for range partitioning and circular oid distances."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.partition import RangePartitioner
from repro.errors import ConfigurationError


class TestDriveAssignment:
    def test_even_partition(self):
        part = RangePartitioner(100, 4)
        assert part.drive_of(0) == 0
        assert part.drive_of(24) == 0
        assert part.drive_of(25) == 1
        assert part.drive_of(99) == 3

    def test_remainder_goes_to_last_drive(self):
        part = RangePartitioner(10, 3)  # ranges 0-2, 3-5, 6-9
        assert part.range_of(0) == (0, 3)
        assert part.range_of(1) == (3, 6)
        assert part.range_of(2) == (6, 10)
        assert part.drive_of(9) == 2

    def test_single_drive(self):
        part = RangePartitioner(50, 1)
        assert part.drive_of(49) == 0
        assert part.range_of(0) == (0, 50)

    def test_oid_out_of_range(self):
        part = RangePartitioner(10, 2)
        with pytest.raises(ConfigurationError):
            part.drive_of(10)
        with pytest.raises(ConfigurationError):
            part.drive_of(-1)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner(10, 0)
        with pytest.raises(ConfigurationError):
            RangePartitioner(2, 3)

    def test_range_of_invalid_drive(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner(10, 2).range_of(2)


class TestDistance:
    def test_simple_distance(self):
        part = RangePartitioner(100, 1)
        assert part.distance(10, 30) == 20

    def test_wraparound_distance(self):
        # Range is [0, 100); 5 and 95 are 10 apart the short way around.
        part = RangePartitioner(100, 1)
        assert part.distance(5, 95) == 10

    def test_distance_zero(self):
        part = RangePartitioner(100, 2)
        assert part.distance(7, 7) == 0

    def test_distance_within_second_drive(self):
        part = RangePartitioner(100, 2)  # drive 1 holds [50, 100)
        assert part.distance(51, 99) == 2  # wraps within the drive's range

    def test_cross_drive_distance_rejected(self):
        part = RangePartitioner(100, 2)
        with pytest.raises(ConfigurationError):
            part.distance(10, 60)

    @given(
        oid_a=st.integers(min_value=0, max_value=999),
        oid_b=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=200, deadline=None)
    def test_distance_is_symmetric_and_bounded(self, oid_a, oid_b):
        part = RangePartitioner(1000, 1)
        distance = part.distance(oid_a, oid_b)
        assert distance == part.distance(oid_b, oid_a)
        assert 0 <= distance <= 500  # half the circular span

    @given(oid=st.integers(min_value=0, max_value=9999))
    @settings(max_examples=200, deadline=None)
    def test_every_oid_maps_to_its_range(self, oid):
        part = RangePartitioner(10000, 7)
        drive = part.drive_of(oid)
        lo, hi = part.range_of(drive)
        assert lo <= oid < hi


class TestRemainderGeometry:
    """drive_of/range_of/distance must agree when the object count does not
    divide evenly — the last drive absorbs the remainder and everything
    else must treat its oversized range consistently."""

    @given(
        num_objects=st.integers(min_value=1, max_value=400),
        num_drives=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_ranges_partition_the_object_space_exactly(
        self, num_objects, num_drives
    ):
        if num_objects < num_drives:
            return
        part = RangePartitioner(num_objects, num_drives)
        ranges = [part.range_of(d) for d in range(num_drives)]
        # Contiguous, ordered, and covering [0, num_objects) with no gaps.
        assert ranges[0][0] == 0
        assert ranges[-1][1] == num_objects
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        for lo, hi in ranges:
            assert lo < hi

    @given(
        num_objects=st.integers(min_value=1, max_value=400),
        num_drives=st.integers(min_value=1, max_value=20),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_drive_of_agrees_with_range_of(self, num_objects, num_drives, data):
        if num_objects < num_drives:
            return
        part = RangePartitioner(num_objects, num_drives)
        oid = data.draw(st.integers(min_value=0, max_value=num_objects - 1))
        drive = part.drive_of(oid)
        lo, hi = part.range_of(drive)
        assert lo <= oid < hi

    @given(
        num_objects=st.integers(min_value=2, max_value=400),
        num_drives=st.integers(min_value=1, max_value=20),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_distance_respects_the_oversized_last_range(
        self, num_objects, num_drives, data
    ):
        if num_objects < num_drives:
            return
        part = RangePartitioner(num_objects, num_drives)
        lo, hi = part.range_of(num_drives - 1)
        oid_a = data.draw(st.integers(min_value=lo, max_value=hi - 1))
        oid_b = data.draw(st.integers(min_value=lo, max_value=hi - 1))
        span = hi - lo
        distance = part.distance(oid_a, oid_b)
        assert distance == part.distance(oid_b, oid_a)
        assert 0 <= distance <= span // 2
        assert part.distance(oid_a, oid_a) == 0


class TestBaseOffset:
    """A partitioner over a shard's sub-range [base, base + n)."""

    def test_offset_ranges(self):
        part = RangePartitioner(10, 3, base=100)  # [100, 110) over 3 drives
        assert part.range_of(0) == (100, 103)
        assert part.range_of(1) == (103, 106)
        assert part.range_of(2) == (106, 110)
        assert part.drive_of(100) == 0
        assert part.drive_of(109) == 2

    def test_offset_oid_bounds(self):
        part = RangePartitioner(10, 2, base=50)
        with pytest.raises(ConfigurationError):
            part.drive_of(49)
        with pytest.raises(ConfigurationError):
            part.drive_of(60)

    def test_negative_base_rejected(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner(10, 2, base=-1)

    @given(
        num_objects=st.integers(min_value=1, max_value=300),
        num_drives=st.integers(min_value=1, max_value=12),
        base=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_offset_is_a_pure_translation(
        self, num_objects, num_drives, base, data
    ):
        if num_objects < num_drives:
            return
        plain = RangePartitioner(num_objects, num_drives)
        shifted = RangePartitioner(num_objects, num_drives, base=base)
        oid = data.draw(st.integers(min_value=0, max_value=num_objects - 1))
        assert shifted.drive_of(base + oid) == plain.drive_of(oid)
        drive = plain.drive_of(oid)
        lo, hi = plain.range_of(drive)
        assert shifted.range_of(drive) == (lo + base, hi + base)


class TestCachedGeometry:
    """The per-drive ranges are cached at construction; every answer must
    still equal the closed-form geometry, errors included."""

    @given(
        num_objects=st.integers(min_value=1, max_value=400),
        num_drives=st.integers(min_value=1, max_value=20),
        base=st.integers(min_value=0, max_value=1000),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_cached_answers_match_closed_form(self, num_objects, num_drives, base, data):
        if num_objects < num_drives:
            return
        part = RangePartitioner(num_objects, num_drives, base=base)
        size = num_objects // num_drives

        def closed_range(drive):
            hi = base + num_objects if drive == num_drives - 1 else base + (drive + 1) * size
            return base + drive * size, hi

        for drive in range(num_drives):
            assert part.range_of(drive) == closed_range(drive)
        oid_a = data.draw(st.integers(base, base + num_objects - 1))
        drive = min((oid_a - base) // size, num_drives - 1)
        assert part.drive_of(oid_a) == drive
        lo, hi = closed_range(drive)
        oid_b = data.draw(st.integers(lo, hi - 1))
        diff = abs(oid_a - oid_b) % (hi - lo)
        assert part.distance(oid_a, oid_b) == min(diff, hi - lo - diff)

        outside = data.draw(
            st.one_of(
                st.integers(-50, base - 1) if base > 0 else st.just(-1),
                st.integers(base + num_objects, base + num_objects + 50),
            )
        )
        with pytest.raises(ConfigurationError):
            part.drive_of(outside)
        if num_drives > 1:
            other_drive = (drive + data.draw(st.integers(1, num_drives - 1))) % num_drives
            other_lo, other_hi = closed_range(other_drive)
            other = data.draw(st.integers(other_lo, other_hi - 1))
            with pytest.raises(ConfigurationError):
                part.distance(oid_a, other)
