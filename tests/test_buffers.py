"""Tests for block buffers and the buffer pool."""

from __future__ import annotations

import pytest

from repro.core.buffers import BlockBuffer, BufferPool, BufferState
from repro.disk.block import BlockAddress, BlockImage
from repro.errors import SimulationError

from tests.conftest import make_data_record


def make_image() -> BlockImage:
    return BlockImage(BlockAddress(0, 0), 400)


class TestBlockBuffer:
    def test_state_cycle(self):
        pool = BufferPool(1)
        buffer = pool.acquire()
        assert buffer.state is BufferState.FREE
        buffer.attach(make_image())
        assert buffer.state is BufferState.FILLING
        buffer.start_write()
        assert buffer.state is BufferState.WRITING
        buffer.finish_write()
        assert buffer.state is BufferState.FREE
        assert pool.in_use == 0

    def test_start_write_seals_image(self):
        buffer = BufferPool(1).acquire()
        image = make_image()
        image.add(make_data_record(lsn=7))
        buffer.attach(image)
        sealed = buffer.start_write()
        assert sealed is image
        assert image.write_lsn == 7

    def test_attach_twice_rejected(self):
        buffer = BufferPool(1).acquire()
        buffer.attach(make_image())
        with pytest.raises(SimulationError):
            buffer.attach(make_image())

    def test_start_write_requires_filling(self):
        buffer = BufferPool(1).acquire()
        with pytest.raises(SimulationError):
            buffer.start_write()

    def test_finish_write_requires_writing(self):
        buffer = BufferPool(1).acquire()
        buffer.attach(make_image())
        with pytest.raises(SimulationError):
            buffer.finish_write()


class TestBufferPool:
    def test_acquire_release_cycle(self):
        pool = BufferPool(2)
        a = pool.acquire()
        assert pool.in_use == 1
        pool.release(a)
        assert pool.in_use == 0

    def test_peak_tracking(self):
        pool = BufferPool(4)
        buffers = [pool.acquire() for _ in range(3)]
        assert pool.peak_in_use == 3
        for b in buffers:
            pool.release(b)
        pool.acquire()
        assert pool.peak_in_use == 3  # peak is sticky

    def test_overdraft_counted_not_fatal(self):
        pool = BufferPool(1)
        pool.acquire()
        extra = pool.acquire()
        assert extra is not None
        assert pool.overdrafts == 1
        assert pool.in_use == 2

    def test_release_without_acquire_raises(self):
        pool = BufferPool(1)
        with pytest.raises(SimulationError):
            pool.release(BlockBuffer(pool))

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            BufferPool(0)
