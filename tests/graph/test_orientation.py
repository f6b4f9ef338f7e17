"""Degree-orientation invariants (paper Section IV-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import orient_edges, orientation_rank
from repro.graph import generators as gen


class TestOrientationRank:
    def test_strict_total_order(self):
        g = gen.erdos_renyi(30, 0.3, seed=1)
        rank = orientation_rank(g)
        assert sorted(rank.tolist()) == list(range(30))

    def test_degree_respected(self):
        g = gen.star_graph(5)  # hub 0 has max degree
        rank = orientation_rank(g)
        assert rank[0] == g.num_vertices - 1

    def test_ties_broken_by_index(self, triangle):
        rank = orientation_rank(triangle)
        assert rank.tolist() == [0, 1, 2]

    def test_custom_key(self, triangle):
        rank = orientation_rank(triangle, key=np.array([5, 1, 3]))
        assert rank.tolist() == [2, 0, 1]

    def test_bad_key_shape(self, triangle):
        with pytest.raises(ValueError):
            orientation_rank(triangle, key=np.zeros(2))


class TestOrientEdges:
    def test_each_edge_exactly_once(self):
        g = gen.erdos_renyi(40, 0.25, seed=2)
        src, dst = orient_edges(g)
        assert src.size == g.num_edges
        got = {frozenset((int(a), int(b))) for a, b in zip(src, dst)}
        want = {frozenset((int(a), int(b))) for a, b in zip(*g.to_edge_list())}
        assert got == want

    def test_source_has_lower_rank(self):
        g = gen.chung_lu_power_law(300, 5.0, seed=3)
        rank = orientation_rank(g)
        src, dst = orient_edges(g)
        assert (rank[src.astype(np.int64)] < rank[dst.astype(np.int64)]).all()

    def test_grouped_by_source(self):
        g = gen.erdos_renyi(30, 0.3, seed=4)
        src, _ = orient_edges(g)
        # sources are non-decreasing (grouped runs)
        assert (np.diff(src.astype(np.int64)) >= 0).all()

    def test_low_degree_sources_shorten_sublists(self):
        # star: every edge must be oriented leaf -> hub
        g = gen.star_graph(8)
        src, dst = orient_edges(g)
        assert (dst == 0).all()
        assert (src != 0).all()

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_orientation_is_acyclic_cover(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        g = gen.erdos_renyi(n, float(rng.uniform(0, 0.6)), seed=seed)
        rank = orientation_rank(g)
        src, dst = orient_edges(g)
        assert src.size == g.num_edges
        # acyclic: ranks strictly increase along every kept edge
        assert (rank[src.astype(np.int64)] < rank[dst.astype(np.int64)]).all()
