"""Breadth-first search core tests (paper Algorithm 2)."""

import time

import numpy as np
import pytest

from repro.core.bfs import bfs_search
from repro.engine.passes import chunk_slices, pair_partners
from repro.core.setup import build_two_clique_list
from repro.errors import DeviceOOMError, SolveTimeoutError
from repro.graph import from_edge_list
from repro.graph import generators as gen
from repro.gpusim import Device, DeviceSpec

from ..conftest import nx_maximum_cliques


@pytest.fixture
def dev():
    return Device(DeviceSpec(memory_bytes=1 << 26))


def run_bfs(graph, omega_bar, dev, **kw):
    src, dst, _ = build_two_clique_list(graph, omega_bar, dev)
    return bfs_search(graph, src, dst, omega_bar, dev, **kw)


class TestSearch:
    def test_triangle(self, triangle, dev):
        out = run_bfs(triangle, 2, dev)
        assert out.omega == 3
        assert out.clique_list.head.size == 1

    def test_paper_graph_enumerates_unique_max(self, paper_graph, dev):
        out = run_bfs(paper_graph, 2, dev)
        assert out.omega == 4
        cliques = out.clique_list.read_cliques()
        assert cliques.shape == (1, 4)
        assert sorted(cliques[0].tolist()) == [1, 2, 3, 4]

    def test_two_disjoint_triangles(self, dev):
        g = from_edge_list([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        out = run_bfs(g, 2, dev)
        assert out.omega == 3
        assert out.clique_list.head.size == 2

    def test_path_graph_max_is_edge(self, path4, dev):
        out = run_bfs(path4, 2, dev)
        assert out.omega == 2
        assert out.clique_list.head.size == 3  # all three edges

    def test_empty_root(self, dev):
        out = bfs_search(
            from_edge_list([(0, 1)]),
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.int32),
            2,
            dev,
        )
        assert out.omega == 0

    def test_level_stats_recorded(self, dev):
        g = gen.complete_graph(5)
        out = run_bfs(g, 2, dev)
        assert [s.level for s in out.levels] == [2, 3, 4, 5]
        assert out.levels[0].candidates == 10  # C(5,2) edges

    def test_pruning_reduces_candidates(self, dev):
        g = gen.erdos_renyi(40, 0.3, seed=11)
        omega, _ = nx_maximum_cliques(g)
        loose = run_bfs(g, 2, dev)
        tight = run_bfs(g, omega, dev)
        assert tight.omega == loose.omega == omega
        assert tight.candidates_stored <= loose.candidates_stored

    def test_small_chunks_same_result(self, dev):
        g = gen.erdos_renyi(30, 0.4, seed=12)
        a = run_bfs(g, 2, dev)
        b = run_bfs(g, 2, dev, chunk_pairs=7)
        assert a.omega == b.omega
        ca = np.sort(np.sort(a.clique_list.read_cliques(), axis=1), axis=0)
        cb = np.sort(np.sort(b.clique_list.read_cliques(), axis=1), axis=0)
        assert (ca == cb).all()

    def test_oom_propagates(self):
        small = Device(DeviceSpec(memory_bytes=48 * 1024))
        g = gen.caveman_social(4, 30, p_in=0.6, seed=3)
        with pytest.raises(DeviceOOMError):
            run_bfs(g, 2, small)

    def test_deadline_raises(self, dev):
        g = gen.caveman_social(4, 40, p_in=0.5, seed=4)
        src, dst, _ = build_two_clique_list(g, 2, dev)
        with pytest.raises(SolveTimeoutError):
            bfs_search(g, src, dst, 2, dev, deadline=time.perf_counter() - 1)

    def test_model_time_advances(self, dev):
        g = gen.erdos_renyi(30, 0.3, seed=13)
        before = dev.model_time_s
        run_bfs(g, 2, dev)
        assert dev.model_time_s > before


class TestChunkHelpers:
    def test_chunk_slices_cover_all_threads(self):
        tail = np.array([3, 0, 5, 2, 2, 0, 1])
        slices = list(chunk_slices(tail, 4))
        covered = []
        for a, b in slices:
            assert sum(tail[a:b]) <= 4 or b - a == 1
            covered.extend(range(a, b))
        assert covered == sorted(set(covered))
        assert covered[0] == 0 and covered[-1] >= 6 or tail[covered[-1] + 1 :].sum() == 0

    def test_chunk_slices_empty(self):
        assert list(chunk_slices(np.zeros(3, dtype=np.int64), 10)) == []

    def test_oversized_single_thread(self):
        tail = np.array([100])
        assert list(chunk_slices(tail, 4)) == [(0, 1)]

    def test_pair_partners(self):
        # threads 5 and 7 pair with (6, 7) and (8)
        threads, reps = np.array([5, 6, 7]), np.array([2, 0, 1])
        assert pair_partners(threads, reps).tolist() == [6, 7, 8]
        # any subset of threads, e.g. the live ones
        partners = pair_partners(np.array([1, 9]), np.array([1, 3]))
        assert partners.tolist() == [2, 10, 11, 12]

    def test_pair_partners_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert pair_partners(empty, empty).size == 0
        assert pair_partners(np.arange(3), np.zeros(3, dtype=np.int64)).size == 0
