"""Graph statistics tests."""

import pytest

from repro.graph import from_edge_list
from repro.graph import generators as gen
from repro.graph.stats import analyze, degree_histogram, triangle_count

from ..conftest import to_networkx


class TestTriangleCount:
    def test_triangle(self, triangle):
        assert triangle_count(triangle) == 1

    def test_k4(self):
        assert triangle_count(gen.complete_graph(4)) == 4

    def test_k6(self):
        assert triangle_count(gen.complete_graph(6)) == 20  # C(6,3)

    def test_triangle_free(self, path4):
        assert triangle_count(path4) == 0

    def test_empty(self):
        assert triangle_count(from_edge_list([])) == 0

    def test_matches_networkx(self):
        import networkx as nx

        for seed in range(10):
            g = gen.erdos_renyi(40, 0.3, seed=seed)
            want = sum(nx.triangles(to_networkx(g)).values()) // 3
            assert triangle_count(g) == want

    def test_chunked_matches_unchunked(self):
        g = gen.caveman_social(4, 30, p_in=0.5, seed=1)
        assert triangle_count(g, chunk_pairs=64) == triangle_count(g)


class TestDegreeHistogram:
    def test_star(self):
        hist = degree_histogram(gen.star_graph(5))
        assert hist[1] == 5
        assert hist[5] == 1

    def test_empty(self):
        assert degree_histogram(from_edge_list([])).tolist() == [0]

    def test_sums_to_n(self):
        g = gen.erdos_renyi(30, 0.3, seed=2)
        assert degree_histogram(g).sum() == 30


class TestAnalyze:
    def test_complete_graph(self):
        s = analyze(gen.complete_graph(5))
        assert s.num_vertices == 5
        assert s.degeneracy == 4
        assert s.clique_upper_bound == 5
        assert s.triangles == 10
        assert s.global_clustering == pytest.approx(1.0)

    def test_empty_graph(self):
        s = analyze(from_edge_list([]))
        assert s.num_vertices == 0
        assert s.clique_upper_bound == 0

    def test_skip_triangles(self):
        g = gen.erdos_renyi(30, 0.3, seed=3)
        s = analyze(g, triangles=False)
        assert s.triangles == 0
        assert s.degeneracy >= 1

    def test_percentiles_ordered(self):
        g = gen.chung_lu_power_law(500, 6.0, seed=4)
        s = analyze(g, triangles=False)
        assert s.degree_p90 <= s.degree_p99 <= s.max_degree

    def test_hardness_hints(self):
        road = analyze(gen.road_grid(20, 20, seed=5), triangles=False)
        assert road.hardness_hint() in ("easy-to-prune", "moderate")
        dense = analyze(
            gen.caveman_social(3, 40, p_in=0.5, seed=6), triangles=False
        )
        # avg degree ~20 vs omega ~7: hard to prune per the paper
        assert dense.hardness_hint(omega_estimate=7) == "hard-to-prune"
        assert analyze(from_edge_list([])).hardness_hint() == "trivial"
