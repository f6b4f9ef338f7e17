"""Unit + property tests for the CSR graph structure."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, csr, from_edge_array, from_edge_list
from repro.graph import generators as gen
from repro.graph.build import splice_edges
from repro.gpusim import Device, DeviceSpec


class TestBasics:
    def test_triangle_properties(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3
        assert triangle.num_directed_edges == 6
        assert triangle.degrees.tolist() == [2, 2, 2]
        assert triangle.max_degree == 2
        assert triangle.average_degree == pytest.approx(2.0)

    def test_neighbors_sorted(self, paper_graph):
        for v in range(paper_graph.num_vertices):
            nbrs = paper_graph.neighbors(v)
            assert (np.diff(nbrs) > 0).all()

    def test_empty_graph(self):
        g = CSRGraph(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32))
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.max_degree == 0
        assert g.average_degree == 0.0

    def test_isolated_vertices(self):
        g = from_edge_list([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degrees.tolist() == [1, 1, 0, 0, 0]

    def test_nbytes_counts_structure(self, triangle):
        expected = triangle.row_offsets.nbytes + triangle.col_indices.nbytes
        assert triangle.nbytes == expected

    def test_to_edge_list_roundtrip(self, paper_graph):
        src, dst = paper_graph.to_edge_list()
        assert (src < dst).all()
        g2 = from_edge_list(list(zip(src.tolist(), dst.tolist())))
        assert (g2.row_offsets == paper_graph.row_offsets).all()
        assert (g2.col_indices == paper_graph.col_indices).all()


class TestFingerprint:
    def test_stable_across_instances(self, triangle):
        same = from_edge_list([(0, 1), (1, 2), (0, 2)])
        assert triangle.fingerprint() == same.fingerprint()

    def test_memoised(self, triangle):
        assert triangle.fingerprint() is triangle.fingerprint()

    def test_is_hex_sha256(self, triangle):
        fp = triangle.fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # parses as hex

    def test_differs_on_edge_change(self, triangle, path4):
        assert triangle.fingerprint() != path4.fingerprint()

    def test_differs_on_isolated_vertex(self):
        g1 = from_edge_list([(0, 1)], num_vertices=2)
        g2 = from_edge_list([(0, 1)], num_vertices=3)
        assert g1.fingerprint() != g2.fingerprint()

    def test_differs_on_relabel(self):
        # isomorphic graphs with different labels are different inputs
        g1 = from_edge_list([(0, 1), (1, 2)])
        g2 = from_edge_list([(0, 2), (2, 1)])
        assert g1.fingerprint() != g2.fingerprint()

    def test_generator_determinism(self):
        a = gen.erdos_renyi(40, 0.2, seed=3)
        b = gen.erdos_renyi(40, 0.2, seed=3)
        c = gen.erdos_renyi(40, 0.2, seed=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_empty_graph_fingerprint(self):
        g = CSRGraph(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32))
        assert len(g.fingerprint()) == 64


class TestValidation:
    def test_bad_row_offsets_start(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([1, 2]), np.array([0, 1], dtype=np.int32))

    def test_decreasing_row_offsets(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 2, 1, 2]), np.array([1, 0], dtype=np.int32))

    def test_column_out_of_range(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([5], dtype=np.int32))

    def test_unsorted_row_rejected(self):
        # row 0 = [2, 1] is out of order
        with pytest.raises(GraphFormatError):
            CSRGraph(
                np.array([0, 2, 2, 2]), np.array([2, 1], dtype=np.int32)
            )

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1, 1]), np.array([0], dtype=np.int32))

    def test_duplicate_in_row_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(
                np.array([0, 2, 2, 2]), np.array([1, 1], dtype=np.int32)
            )


class TestEdgeLookup:
    def test_has_edge_scalar(self, paper_graph):
        assert paper_graph.has_edge(1, 2)
        assert paper_graph.has_edge(2, 1)
        assert not paper_graph.has_edge(0, 4)
        assert not paper_graph.has_edge(0, 3)

    def test_batch_methods_agree(self):
        g = gen.erdos_renyi(60, 0.3, seed=5)
        rng = np.random.default_rng(0)
        u = rng.integers(0, 60, 5000)
        v = rng.integers(0, 60, 5000)
        keys = g.batch_has_edge(u, v, method="keys")
        binary = g.batch_has_edge(u, v, method="binary")
        assert (keys == binary).all()
        scalar = np.array([g.has_edge(int(a), int(b)) for a, b in zip(u[:200], v[:200])])
        assert (keys[:200] == scalar).all()

    def test_batch_empty(self, triangle):
        out = triangle.batch_has_edge(np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert out.size == 0

    def test_batch_shape_mismatch(self, triangle):
        with pytest.raises(ValueError):
            triangle.batch_has_edge(np.zeros(2, np.int64), np.zeros(3, np.int64))

    def test_unknown_method(self, triangle):
        with pytest.raises(ValueError):
            triangle.batch_has_edge(
                np.zeros(1, np.int64), np.ones(1, np.int64), method="magic"
            )

    def test_device_charged_per_query(self, triangle):
        dev = Device(DeviceSpec())
        before = dev.stats().useful_ops
        triangle.batch_has_edge(
            np.array([0, 1]), np.array([1, 2]), device=dev
        )
        s = dev.stats()
        assert s.kernel_launches == 1
        # cost = ceil(log2(deg+1)) + 1 = 3 per query for degree-2 rows
        assert s.useful_ops - before == pytest.approx(6.0)

    def test_lookup_cost_formula(self):
        g = gen.star_graph(7)  # hub degree 7, leaves degree 1
        cost = g.lookup_cost
        assert cost[0] == np.ceil(np.log2(8)) + 1  # hub
        assert cost[1] == np.ceil(np.log2(2)) + 1  # leaf

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_lookup_matches_adjacency_sets(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        g = gen.erdos_renyi(n, float(rng.uniform(0, 0.7)), seed=seed)
        adj = {v: set(g.neighbors(v).tolist()) for v in range(n)}
        u = rng.integers(0, n, 200)
        v = rng.integers(0, n, 200)
        got = g.batch_has_edge(u, v)
        want = np.array([b in adj[a] for a, b in zip(u.tolist(), v.tolist())])
        assert (got == want).all()


@st.composite
def lookup_graphs(draw):
    """Graphs of 0-70 vertices with isolated ones; some spliced."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 70))
    src, dst = np.triu_indices(n, 1)
    keep = rng.random(src.size) < draw(st.floats(0.0, 0.6))
    # the top few ids stay isolated
    keep &= dst < n - draw(st.integers(0, 3))
    graph = from_edge_array(src[keep], dst[keep], num_vertices=n)
    if n and draw(st.booleans()):
        edges = list(zip(src[keep].tolist(), dst[keep].tolist()))
        deleted = [e for e in edges if rng.random() < 0.3]
        absent = zip(src[~keep].tolist(), dst[~keep].tolist())
        inserted = [e for e in absent if rng.random() < 0.1]
        grown = n + draw(st.integers(0, 9))
        if grown > n:
            inserted.append((0, grown - 1))
        graph = splice_edges(graph, inserted, deleted, grown)
    return graph


def adjacency_oracle(graph):
    n = graph.num_vertices
    adj = {v: set(graph.neighbors(v).tolist()) for v in range(n)}
    u, v = np.divmod(np.arange(n * n, dtype=np.int64), max(n, 1))
    want = [b in adj[a] for a, b in zip(u.tolist(), v.tolist())]
    return u, v, np.array(want, dtype=bool)


class TestLookupPaths:
    """The bitmap and the key search against the binary oracle."""

    @given(lookup_graphs())
    @settings(max_examples=60, deadline=None)
    def test_both_paths_match_the_oracles(self, graph):
        n = graph.num_vertices
        u, v, want = adjacency_oracle(graph)
        size = (n * n + 7) // 8
        # every ordered pair, as int32 (the passes) and int64 ids
        for budget, bitmap in (
            (csr.BITMAP_BUDGET_BYTES, True), (size - 1, False)
        ):
            with mock.patch.object(csr, "BITMAP_BUDGET_BYTES", budget):
                g = CSRGraph(graph.row_offsets, graph.col_indices)
                assert (g.adjacency_bitmap is not None) == bitmap
                for dtype in (np.int32, np.int64):
                    got = g.batch_has_edge(u.astype(dtype), v.astype(dtype))
                    assert got.dtype == bool and np.array_equal(got, want)
                binary = g.batch_has_edge(u, v, method="binary")
                assert np.array_equal(binary, want)

    def test_bitmap_layout(self):
        g = gen.erdos_renyi(37, 0.3, seed=4)  # 37 is not a multiple of 8
        bits = np.unpackbits(g.adjacency_bitmap, bitorder="little")
        dense = np.zeros((37, 37), dtype=np.uint8)
        rows = np.repeat(np.arange(37), g.degrees)
        dense[rows, g.col_indices] = 1
        assert g.adjacency_bitmap.size == (37 * 37 + 7) // 8
        assert np.array_equal(bits[: 37 * 37], dense.ravel())
        assert not bits[37 * 37 :].any()

    def test_bitmap_at_exact_budget(self, monkeypatch):
        g = gen.erdos_renyi(37, 0.3, seed=4)
        size = (37 * 37 + 7) // 8
        monkeypatch.setattr(csr, "BITMAP_BUDGET_BYTES", size)
        nbytes = g.nbytes
        assert g.adjacency_bitmap is not None
        assert g.adjacency_bitmap is g.adjacency_bitmap  # built once
        # a host index: not device memory
        assert g.nbytes == nbytes
        assert nbytes == g.row_offsets.nbytes + g.col_indices.nbytes
        monkeypatch.setattr(csr, "BITMAP_BUDGET_BYTES", size - 1)
        over = CSRGraph(g.row_offsets, g.col_indices)
        assert over.adjacency_bitmap is None
        u, v, want = adjacency_oracle(g)
        assert np.array_equal(over.batch_has_edge(u, v), want)

    def test_device_charge_is_path_independent(self, monkeypatch):
        g = gen.erdos_renyi(30, 0.4, seed=2)
        u, v, _ = adjacency_oracle(g)
        stats = []
        for budget in (csr.BITMAP_BUDGET_BYTES, 0):
            monkeypatch.setattr(csr, "BITMAP_BUDGET_BYTES", budget)
            graph = CSRGraph(g.row_offsets, g.col_indices)
            dev = Device(DeviceSpec())
            graph.batch_has_edge(u, v, device=dev)
            stats.append(dev.stats())
        assert stats[0] == stats[1]
