"""Unit + property tests for the CUB-style data-parallel primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import Device, DeviceSpec, primitives as P


@pytest.fixture
def dev():
    return Device(DeviceSpec(memory_bytes=1 << 24))


int_arrays = st.lists(st.integers(0, 1000), min_size=0, max_size=200).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


class TestScan:
    def test_exclusive_scan_basic(self, dev):
        offs, total = P.exclusive_scan(dev, np.array([3, 1, 4]))
        assert offs.tolist() == [0, 3, 4]
        assert total == 8

    def test_exclusive_scan_empty(self, dev):
        offs, total = P.exclusive_scan(dev, np.zeros(0, dtype=np.int64))
        assert offs.size == 0
        assert total == 0

    def test_inclusive_scan(self, dev):
        out = P.inclusive_scan(dev, np.array([1, 2, 3]))
        assert out.tolist() == [1, 3, 6]

    @given(int_arrays)
    @settings(max_examples=50, deadline=None)
    def test_exclusive_scan_matches_numpy(self, values):
        dev = Device(DeviceSpec())
        offs, total = P.exclusive_scan(dev, values)
        ref = np.concatenate([[0], np.cumsum(values)])
        assert offs.tolist() == ref[:-1].tolist()
        assert total == ref[-1]

    def test_scan_charges_launch(self, dev):
        before = dev.stats().kernel_launches
        P.exclusive_scan(dev, np.arange(10))
        assert dev.stats().kernel_launches == before + 1


class TestReduce:
    def test_reduce_sum(self, dev):
        assert P.reduce_sum(dev, np.array([1, 2, 3])) == 6.0
        assert P.reduce_sum(dev, np.zeros(0)) == 0.0

    def test_reduce_max(self, dev):
        assert P.reduce_max(dev, np.array([5, 2, 9])) == 9.0
        assert P.reduce_max(dev, np.zeros(0)) == float("-inf")


class TestSelect:
    def test_select_flagged(self, dev):
        vals = np.array([10, 20, 30, 40])
        flags = np.array([True, False, True, False])
        assert P.select_flagged(dev, vals, flags).tolist() == [10, 30]

    def test_select_shape_mismatch(self, dev):
        with pytest.raises(ValueError):
            P.select_flagged(dev, np.zeros(3), np.zeros(2, dtype=bool))

    def test_select_if_nonzero(self, dev):
        assert P.select_if_nonzero(dev, np.array([0, 5, 0, 7])).tolist() == [5, 7]

    @given(int_arrays)
    @settings(max_examples=50, deadline=None)
    def test_select_preserves_order(self, values):
        dev = Device(DeviceSpec())
        flags = values % 2 == 0
        out = P.select_flagged(dev, values, flags)
        assert out.tolist() == values[flags].tolist()


class TestSort:
    def test_radix_sort(self, dev):
        out = P.radix_sort(dev, np.array([3, 1, 2]))
        assert out.tolist() == [1, 2, 3]

    def test_radix_sort_descending(self, dev):
        out = P.radix_sort(dev, np.array([3, 1, 2]), descending=True)
        assert out.tolist() == [3, 2, 1]

    def test_radix_sort_pairs_stable(self, dev):
        keys = np.array([2, 1, 2, 1])
        vals = np.array([0, 1, 2, 3])
        k, v = P.radix_sort_pairs(dev, keys, vals)
        assert k.tolist() == [1, 1, 2, 2]
        assert v.tolist() == [1, 3, 0, 2]  # stable within equal keys

    def test_radix_sort_pairs_descending(self, dev):
        keys = np.array([1, 3, 2])
        vals = np.array([10, 30, 20])
        k, v = P.radix_sort_pairs(dev, keys, vals, descending=True)
        assert k.tolist() == [3, 2, 1]
        assert v.tolist() == [30, 20, 10]

    def test_pairs_shape_mismatch(self, dev):
        with pytest.raises(ValueError):
            P.radix_sort_pairs(dev, np.zeros(3), np.zeros(4))


class TestSegmented:
    def test_segmented_max(self, dev):
        out = P.segmented_max(
            dev, np.array([3, 1, 4, 1, 5]), np.array([0, 2, 2, 5])
        )
        assert out[0] == 3
        assert out[2] == 5
        assert out[1] == np.iinfo(np.int64).min  # empty segment

    def test_segmented_argmax_first_tie(self, dev):
        out = P.segmented_argmax(
            dev, np.array([7, 7, 1, 2, 9]), np.array([0, 3, 5])
        )
        assert out.tolist() == [0, 4]  # ties resolve to the earliest index

    def test_segmented_argmax_empty_segment(self, dev):
        out = P.segmented_argmax(dev, np.array([1]), np.array([0, 0, 1]))
        assert out.tolist() == [-1, 0]

    def test_segmented_sum(self, dev):
        out = P.segmented_sum(
            dev, np.array([1, 2, 3, 4]), np.array([0, 1, 1, 4])
        )
        assert out.tolist() == [1, 0, 9]

    def test_bad_offsets_rejected(self, dev):
        with pytest.raises(ValueError):
            P.segmented_max(dev, np.array([1, 2]), np.array([0, 1]))
        with pytest.raises(ValueError):
            P.segmented_max(dev, np.array([1, 2]), np.zeros(0, dtype=np.int64))

    @given(
        st.lists(
            st.lists(st.integers(0, 100), min_size=0, max_size=10),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_segmented_ops_match_python(self, segments):
        dev = Device(DeviceSpec())
        values = np.asarray(
            [x for seg in segments for x in seg], dtype=np.int64
        )
        offsets = np.cumsum([0] + [len(s) for s in segments]).astype(np.int64)
        got_max = P.segmented_max(dev, values, offsets)
        got_arg = P.segmented_argmax(dev, values, offsets)
        got_sum = P.segmented_sum(dev, values, offsets)
        for i, seg in enumerate(segments):
            if seg:
                assert got_max[i] == max(seg)
                assert got_sum[i] == sum(seg)
                local = int(np.argmax(np.asarray(seg)))
                assert got_arg[i] == offsets[i] + local
            else:
                assert got_arg[i] == -1
                assert got_sum[i] == 0

