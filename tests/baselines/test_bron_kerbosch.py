"""Bron-Kerbosch maximal clique enumeration tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    count_maximal_cliques,
    maximal_cliques,
    maximum_cliques_via_bk,
)
from repro.graph import from_edge_list
from repro.graph import generators as gen

from ..conftest import to_networkx


class TestMaximalCliques:
    def test_triangle(self, triangle):
        assert maximal_cliques(triangle) == [[0, 1, 2]]

    def test_path(self, path4):
        assert sorted(maximal_cliques(path4)) == [[0, 1], [1, 2], [2, 3]]

    def test_empty_graph(self):
        assert maximal_cliques(from_edge_list([])) == []

    def test_edgeless_graph_singletons(self):
        got = sorted(maximal_cliques(from_edge_list([], num_vertices=3)))
        assert got == [[0], [1], [2]]

    def test_moon_moser_extremal(self):
        # K_{3,3,3} complement-style: 3 disjoint triangles joined fully
        # Moon-Moser graph on 9 vertices has 3^3 = 27 maximal cliques
        parts = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        edges = []
        for i, a in enumerate(parts):
            for b in parts[i + 1 :]:
                edges.extend((x, y) for x in a for y in b)
        g = from_edge_list(edges)
        assert count_maximal_cliques(g) == 27

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx(self, seed):
        import networkx as nx

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        g = gen.erdos_renyi(n, float(rng.uniform(0.05, 0.6)), seed=seed)
        got = {tuple(c) for c in maximal_cliques(g)}
        want = {tuple(sorted(c)) for c in nx.find_cliques(to_networkx(g))}
        if g.num_edges == 0:
            want = {(v,) for v in range(n)}
        assert got == want


class TestMaximumViaBK:
    def test_paper_graph(self, paper_graph):
        omega, cliques = maximum_cliques_via_bk(paper_graph)
        assert omega == 4
        assert cliques == [(1, 2, 3, 4)]

    def test_ties_enumerated(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        omega, cliques = maximum_cliques_via_bk(g)
        assert omega == 3
        assert len(cliques) == 2

    def test_empty(self):
        assert maximum_cliques_via_bk(from_edge_list([])) == (0, [])
