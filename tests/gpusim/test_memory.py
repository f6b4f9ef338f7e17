"""Unit tests for the device memory pool and arrays."""

import numpy as np
import pytest

from repro.errors import DeviceOOMError, DeviceStateError
from repro.gpusim.memory import DeviceArray, MemoryPool


class TestMemoryPool:
    def test_reserve_and_release(self):
        pool = MemoryPool(1000)
        pool.reserve(400)
        assert pool.in_use_bytes == 400
        pool.release(100)
        assert pool.in_use_bytes == 300
        assert pool.peak_bytes == 400

    def test_budget_enforced(self):
        pool = MemoryPool(100)
        pool.reserve(80)
        with pytest.raises(DeviceOOMError) as exc:
            pool.reserve(21)
        assert exc.value.requested == 21
        assert exc.value.in_use == 80
        assert exc.value.budget == 100
        # failed reservation does not change accounting
        assert pool.in_use_bytes == 80

    def test_exact_fit_allowed(self):
        pool = MemoryPool(100)
        pool.reserve(100)
        assert pool.in_use_bytes == 100

    def test_unlimited_pool(self):
        pool = MemoryPool(None)
        pool.reserve(10**12)
        assert pool.peak_bytes == 10**12

    def test_peak_tracks_high_water(self):
        pool = MemoryPool(None)
        pool.reserve(500)
        pool.release(500)
        pool.reserve(200)
        assert pool.peak_bytes == 500
        pool.reset_peak()
        assert pool.peak_bytes == 200

    def test_over_release_rejected(self):
        pool = MemoryPool(None)
        pool.reserve(10)
        with pytest.raises(DeviceStateError):
            pool.release(11)

    def test_negative_sizes_rejected(self):
        pool = MemoryPool(None)
        with pytest.raises(ValueError):
            pool.reserve(-1)
        with pytest.raises(ValueError):
            pool.release(-1)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            MemoryPool(0)


class TestDeviceArray:
    def test_wraps_and_charges(self):
        pool = MemoryPool(None)
        arr = DeviceArray(np.zeros(10, dtype=np.int32), pool, label="x")
        assert pool.in_use_bytes == 40
        assert arr.nbytes == 40
        assert arr.size == 10
        assert arr.dtype == np.int32

    def test_free_releases_and_is_idempotent(self):
        pool = MemoryPool(None)
        arr = DeviceArray(np.zeros(10, dtype=np.int64), pool)
        arr.free()
        assert pool.in_use_bytes == 0
        arr.free()  # idempotent

    def test_use_after_free_raises(self):
        pool = MemoryPool(None)
        arr = DeviceArray(np.zeros(4), pool)
        arr.free()
        with pytest.raises(DeviceStateError):
            _ = arr.a

    def test_context_manager_frees(self):
        pool = MemoryPool(None)
        with DeviceArray(np.zeros(4), pool) as arr:
            assert not arr.freed
        assert arr.freed
        assert pool.in_use_bytes == 0

    def test_to_host_is_a_copy(self):
        pool = MemoryPool(None)
        arr = DeviceArray(np.arange(5), pool)
        host = arr.to_host()
        host[0] = 99
        assert arr.a[0] == 0

    def test_len_and_iter(self):
        pool = MemoryPool(None)
        arr = DeviceArray(np.arange(3), pool)
        assert len(arr) == 3
        assert list(arr) == [0, 1, 2]

    def test_oversized_allocation_fails(self):
        pool = MemoryPool(16)
        with pytest.raises(DeviceOOMError):
            DeviceArray(np.zeros(100, dtype=np.int64), pool)
