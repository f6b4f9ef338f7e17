"""Window machinery internals: ordering, sizing, boundary snapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WindowOrder
from repro.core.setup import build_two_clique_list
from repro.core.windowed import split_windows
from repro.engine.sweep import order_groups
from repro.graph import generators as gen
from repro.gpusim import Device, DeviceSpec


class TestOrderGroups:
    @pytest.fixture
    def oriented(self):
        g = gen.chung_lu_power_law(120, 6.0, seed=1)
        dev = Device(DeviceSpec(memory_bytes=1 << 24))
        src, dst, _ = build_two_clique_list(g, 2, dev)
        return g, src, dst

    def test_natural_is_identity(self, oriented):
        g, src, dst = oriented
        s2, d2 = order_groups(src, dst, g.degrees, WindowOrder.NATURAL)
        assert (s2 == src).all() and (d2 == dst).all()

    @pytest.mark.parametrize(
        "order,sign", [(WindowOrder.ASC_DEGREE, 1), (WindowOrder.DESC_DEGREE, -1)]
    )
    def test_groups_sorted_by_source_degree(self, oriented, order, sign):
        g, src, dst = oriented
        s2, d2 = order_groups(src, dst, g.degrees, order)
        # same multiset of 2-cliques
        assert sorted(zip(s2.tolist(), d2.tolist())) == sorted(
            zip(src.tolist(), dst.tolist())
        )
        # group-leading source degrees are monotone in the right direction
        lead = s2[np.concatenate(([True], s2[1:] != s2[:-1]))]
        degs = g.degrees[lead.astype(np.int64)]
        assert (sign * np.diff(degs) >= 0).all()

    def test_groups_stay_contiguous(self, oriented):
        g, src, dst = oriented
        s2, _ = order_groups(src, dst, g.degrees, WindowOrder.ASC_DEGREE)
        # each source id appears in exactly one run
        changes = int((np.diff(s2.astype(np.int64)) != 0).sum())
        assert changes + 1 == np.unique(s2).size


class TestSplitWindowsProperties:
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=30),
        st.integers(1, 50),
    )
    @settings(max_examples=80, deadline=None)
    def test_tiling_and_boundaries(self, run_lengths, window):
        # build a sublist array of consecutive runs
        sub = np.concatenate(
            [np.full(l, i, dtype=np.int32) for i, l in enumerate(run_lengths)]
        )
        windows = split_windows(sub, window)
        # tiles the whole array
        assert windows[0][0] == 0
        assert windows[-1][1] == sub.size
        for (a1, b1), (a2, b2) in zip(windows, windows[1:]):
            assert b1 == a2
        # cuts only at run boundaries, and every window is non-empty
        for a, b in windows:
            assert b > a
            if b < sub.size:
                assert sub[b - 1] != sub[b]
