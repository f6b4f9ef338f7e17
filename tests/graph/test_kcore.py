"""k-core decomposition vs the networkx oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import core_numbers, degeneracy, from_edge_list, kcore_subgraph_vertices
from repro.graph import generators as gen
from repro.gpusim import Device, DeviceSpec

from ..conftest import to_networkx


class TestCoreNumbers:
    def test_triangle(self, triangle):
        assert core_numbers(triangle).tolist() == [2, 2, 2]

    def test_path(self, path4):
        assert core_numbers(path4).tolist() == [1, 1, 1, 1]

    def test_star(self):
        g = gen.star_graph(5)
        assert core_numbers(g).tolist() == [1, 1, 1, 1, 1, 1]

    def test_complete(self):
        g = gen.complete_graph(6)
        assert (core_numbers(g) == 5).all()

    def test_isolated_vertices_are_zero_core(self):
        g = from_edge_list([(0, 1)], num_vertices=4)
        assert core_numbers(g).tolist() == [1, 1, 0, 0]

    def test_paper_graph(self, paper_graph):
        # K4 members have core 3; A (degree 2 into the K4) has core 2
        assert core_numbers(paper_graph).tolist() == [2, 3, 3, 3, 3]

    def test_matches_networkx_on_suite_sample(self):
        import networkx as nx

        g = gen.chung_lu_power_law(800, 6.0, seed=13)
        got = core_numbers(g)
        want = nx.core_number(to_networkx(g))
        assert all(got[v] == want[v] for v in range(g.num_vertices))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx_random(self, seed):
        import networkx as nx

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        g = gen.erdos_renyi(n, float(rng.uniform(0, 0.5)), seed=seed)
        got = core_numbers(g)
        want = nx.core_number(to_networkx(g))
        assert all(got[v] == want[v] for v in range(n))

    def test_device_charged(self, triangle):
        dev = Device(DeviceSpec())
        core_numbers(triangle, dev)
        assert dev.stats().kernel_launches >= 1


class TestDegeneracy:
    def test_degeneracy_bounds_clique(self):
        g = gen.complete_graph(5)
        assert degeneracy(g) == 4

    def test_empty(self):
        g = from_edge_list([])
        assert degeneracy(g) == 0

    def test_kcore_subgraph_vertices(self, paper_graph):
        assert kcore_subgraph_vertices(paper_graph, 3).tolist() == [1, 2, 3, 4]
        assert kcore_subgraph_vertices(paper_graph, 4).size == 0
