"""Greedy colouring and degeneracy-order tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    coloring_upper_bound,
    core_numbers,
    degeneracy_order,
    from_edge_list,
    greedy_coloring,
)
from repro.graph import generators as gen


def assert_proper(graph, colors):
    src, dst = graph.to_edge_list()
    assert (colors[src] != colors[dst]).all(), "colouring is not proper"


class TestGreedyColoring:
    def test_triangle_needs_three(self, triangle):
        colors, k = greedy_coloring(triangle)
        assert k == 3
        assert_proper(triangle, colors)

    def test_bipartite_two_colors(self):
        g = gen.cycle_graph(6)
        colors, k = greedy_coloring(g, degeneracy_order(g))
        assert k == 2
        assert_proper(g, colors)

    def test_complete(self):
        g = gen.complete_graph(7)
        colors, k = greedy_coloring(g)
        assert k == 7

    def test_edgeless(self):
        g = from_edge_list([], num_vertices=4)
        colors, k = greedy_coloring(g)
        assert k == 1
        assert (colors == 0).all()

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_proper_and_bounded_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        g = gen.erdos_renyi(n, float(rng.uniform(0, 0.6)), seed=seed)
        order = degeneracy_order(g)
        colors, k = greedy_coloring(g, order)
        assert_proper(g, colors)
        # degeneracy-ordered greedy uses at most degeneracy+1 colours
        assert k <= int(core_numbers(g).max()) + 1 if g.num_edges else k == 1


class TestDegeneracyOrder:
    def test_is_permutation(self):
        g = gen.erdos_renyi(50, 0.2, seed=3)
        order = degeneracy_order(g)
        assert sorted(order.tolist()) == list(range(50))

    def test_empty(self):
        g = from_edge_list([])
        assert degeneracy_order(g).size == 0

    def test_peel_order_property(self, paper_graph):
        # the order is reversed smallest-last peeling: every vertex has
        # at most `degeneracy` neighbours EARLIER in the order (that is
        # what bounds greedy colouring at degeneracy + 1 colours)
        order = degeneracy_order(paper_graph)
        pos = np.empty(order.size, dtype=np.int64)
        pos[order] = np.arange(order.size)
        degen = int(core_numbers(paper_graph).max())
        for v in range(paper_graph.num_vertices):
            earlier = sum(
                1 for u in paper_graph.neighbors(v).tolist() if pos[u] < pos[v]
            )
            assert earlier <= degen

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_earlier_neighbour_bound_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 35))
        g = gen.erdos_renyi(n, float(rng.uniform(0, 0.5)), seed=seed)
        order = degeneracy_order(g)
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        degen = int(core_numbers(g).max()) if g.num_edges else 0
        for v in range(n):
            earlier = sum(1 for u in g.neighbors(v).tolist() if pos[u] < pos[v])
            assert earlier <= degen


class TestColoringUpperBound:
    def test_bounds_omega(self):
        from repro.baselines import maximum_cliques_via_bk

        for seed in range(8):
            g = gen.erdos_renyi(20, 0.4, seed=seed)
            omega, _ = maximum_cliques_via_bk(g)
            assert coloring_upper_bound(g) >= omega

    def test_empty(self):
        assert coloring_upper_bound(from_edge_list([])) == 0
