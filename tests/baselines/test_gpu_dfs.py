"""Warp-parallel GPU DFS baseline tests."""

from repro.baselines import gpu_dfs_max_clique, maximum_cliques_via_bk
from repro.graph import from_edge_list
from repro.graph import generators as gen
from repro.gpusim import Device, DeviceSpec

from ..conftest import assert_is_clique


class TestExactness:
    def test_random_graphs(self):
        for seed in range(15):
            g = gen.erdos_renyi(30, 0.35, seed=seed)
            omega, _ = maximum_cliques_via_bk(g)
            r = gpu_dfs_max_clique(g)
            assert r.clique_number == omega
            if g.num_edges and omega >= 2:
                assert_is_clique(g, r.clique)
                assert r.clique.size == omega

    def test_trivial_graphs(self):
        assert gpu_dfs_max_clique(from_edge_list([])).clique_number == 0
        assert (
            gpu_dfs_max_clique(from_edge_list([], num_vertices=4)).clique_number
            == 1
        )

    def test_lower_bound_seed(self):
        g = gen.planted_clique(200, 10, avg_degree=2.0, seed=1)
        r = gpu_dfs_max_clique(g, lower_bound=8)
        assert r.clique_number == 10


class TestCostModel:
    def test_one_kernel_for_the_sweep(self):
        g = gen.erdos_renyi(40, 0.4, seed=2)
        dev = Device(DeviceSpec())
        gpu_dfs_max_clique(g, dev)
        breakdown = dev.kernel_breakdown()
        assert breakdown.get("gpu_dfs") is not None
        assert breakdown["gpu_dfs"].launches == 1

    def test_subtree_costs_and_imbalance(self):
        g = gen.caveman_social(4, 30, p_in=0.45, seed=3)
        r = gpu_dfs_max_clique(g)
        assert r.warps_used == r.subtree_costs.size > 0
        assert (r.subtree_costs > 0).all()
        # skewed subtree sizes: the paper's load-imbalance complaint
        assert r.imbalance >= 1.0

    def test_stale_bounds_inflate_work(self):
        # without a good initial bound the concurrent warps explore far
        # more subtrees than a bound-sharing sequential DFS would
        g = gen.team_collaboration(500, 300, team_size_range=(2, 9), seed=4)
        weak = gpu_dfs_max_clique(g, lower_bound=1)
        strong = gpu_dfs_max_clique(g, lower_bound=weak.clique_number - 1)
        assert strong.clique_number == weak.clique_number
        assert strong.warps_used <= weak.warps_used
        assert strong.nodes_explored <= weak.nodes_explored

    def test_model_time_recorded(self):
        g = gen.erdos_renyi(30, 0.4, seed=5)
        r = gpu_dfs_max_clique(g)
        assert r.model_time_s > 0
        assert r.wall_time_s > 0
