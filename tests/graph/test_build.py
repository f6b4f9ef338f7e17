"""Unit + property tests for graph builders and preprocessing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import (
    from_adjacency,
    from_edge_array,
    from_edge_list,
    induced_subgraph,
    relabel_random,
)
from repro.graph.build import graph_union
from repro.graph import generators as gen


class TestFromEdgeList:
    def test_mirrors_edges(self):
        g = from_edge_list([(0, 1)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.num_edges == 1

    def test_drops_self_loops(self):
        g = from_edge_list([(0, 0), (0, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_merges_duplicates_and_reciprocals(self):
        g = from_edge_list([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_empty(self):
        g = from_edge_list([])
        assert g.num_vertices == 0

    def test_num_vertices_override(self):
        g = from_edge_list([(0, 1)], num_vertices=10)
        assert g.num_vertices == 10

    def test_id_exceeding_num_vertices_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edge_list([(0, 5)], num_vertices=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edge_array(np.array([-1]), np.array([0]))

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edge_list([(1, 2, 3)])

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(GraphFormatError):
            from_edge_array(np.zeros(2, np.int64), np.zeros(3, np.int64))

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_builds_exact_simple_graph(self, edges):
        g = from_edge_list(edges, num_vertices=16)
        want = {frozenset(e) for e in edges if e[0] != e[1]}
        got = {
            frozenset((int(a), int(b)))
            for a, b in zip(*g.to_edge_list())
        }
        assert got == want
        g.validate()


class TestFromAdjacency:
    def test_round_trip(self, paper_graph):
        adj = [paper_graph.neighbors(v).tolist() for v in range(5)]
        g = from_adjacency(adj)
        assert (g.col_indices == paper_graph.col_indices).all()


class TestRelabel:
    def test_preserves_structure(self):
        g = gen.erdos_renyi(30, 0.3, seed=1)
        h = relabel_random(g, seed=2)
        assert h.num_vertices == g.num_vertices
        assert h.num_edges == g.num_edges
        assert sorted(h.degrees.tolist()) == sorted(g.degrees.tolist())

    def test_deterministic(self):
        g = gen.erdos_renyi(30, 0.3, seed=1)
        a = relabel_random(g, seed=7)
        b = relabel_random(g, seed=7)
        assert (a.col_indices == b.col_indices).all()

    def test_actually_permutes(self):
        g = gen.star_graph(10)
        h = relabel_random(g, seed=3)
        # hub moves with overwhelming probability for this seed
        assert int(np.argmax(h.degrees)) != 0 or (h.degrees == g.degrees).all()


class TestInducedSubgraph:
    def test_triangle_subset(self, paper_graph):
        sub, ids = induced_subgraph(paper_graph, np.array([1, 2, 3]))
        assert sub.num_vertices == 3
        assert sub.num_edges == 3  # B,C,D form a triangle
        assert ids.tolist() == [1, 2, 3]

    def test_edgeless_subset(self, paper_graph):
        sub, _ = induced_subgraph(paper_graph, np.array([0, 3]))
        assert sub.num_edges == 0  # A and D are not adjacent

    def test_duplicate_ids_collapsed(self, triangle):
        sub, ids = induced_subgraph(triangle, np.array([0, 0, 1]))
        assert sub.num_vertices == 2
        assert ids.tolist() == [0, 1]

    def test_out_of_range_id_rejected(self, triangle):
        with pytest.raises(GraphFormatError):
            induced_subgraph(triangle, np.array([0, 3]))

    @given(
        n=st.integers(0, 30),
        p=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**16),
        picks=st.one_of(
            st.just("all"), st.lists(st.integers(0, 29), max_size=40)
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_gather_matches_the_edge_list_construction(self, n, p, seed, picks):
        graph = gen.erdos_renyi(n, p, seed=seed)
        vertices = np.arange(n) if picks == "all" else [v % n for v in picks if n]
        sub, ids = induced_subgraph(graph, np.asarray(vertices, dtype=np.int64))
        # the construction the gather replaced: flatten, filter, rebuild
        want_ids = np.unique(np.asarray(vertices, dtype=np.int64))
        local = np.full(n, -1, dtype=np.int64)
        local[want_ids] = np.arange(want_ids.size)
        src, dst = graph.to_edge_list()
        mask = (local[src] >= 0) & (local[dst] >= 0)
        want = from_edge_array(
            local[src[mask]], local[dst[mask]], num_vertices=want_ids.size
        )
        assert ids.dtype == want_ids.dtype and ids.tolist() == want_ids.tolist()
        for name in ("row_offsets", "col_indices", "edge_keys"):
            got, ref = getattr(sub, name), getattr(want, name)
            assert got.dtype == ref.dtype, name
            assert got.tobytes() == ref.tobytes(), name
        assert sub.fingerprint() == want.fingerprint()


class TestGraphUnion:
    def test_union_of_disjoint_edges(self):
        a = from_edge_list([(0, 1)], num_vertices=4)
        b = from_edge_list([(2, 3)], num_vertices=4)
        u = graph_union(a, b)
        assert u.num_edges == 2

    def test_union_merges_shared_edges(self):
        a = from_edge_list([(0, 1), (1, 2)])
        b = from_edge_list([(0, 1)], num_vertices=3)
        u = graph_union(a, b)
        assert u.num_edges == 2

    def test_union_empty_rejected(self):
        with pytest.raises(ValueError):
            graph_union()

    def test_union_takes_max_vertices(self):
        a = from_edge_list([(0, 1)], num_vertices=2)
        b = from_edge_list([(0, 1)], num_vertices=9)
        assert graph_union(a, b).num_vertices == 9
