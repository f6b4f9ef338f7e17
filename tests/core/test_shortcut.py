"""The Section IV-C single-sublist shortcut and the Algorithm 2
line-36 early exit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import find_maximum_cliques
from repro.baselines import maximum_cliques_via_bk
from repro.core.verify import verify_result
from repro.graph import generators as gen


class TestSingleSublistShortcut:
    def test_fires_on_planted_cliques(self):
        # dominant planted clique: the heuristic finds omega, pruning
        # collapses the 2-clique list to that clique's own sublist
        fired = 0
        for seed in range(12):
            g = gen.planted_clique(300, 10, avg_degree=2.0, seed=seed)
            r = find_maximum_cliques(g)
            ref, refc = maximum_cliques_via_bk(g)
            assert r.clique_number == ref
            assert r.num_maximum_cliques == len(refc)
            verify_result(g, r)
            if r.found_by == "heuristic":
                fired += 1
        assert fired >= 10  # the paper: 97% of datasets end this way

    def test_shortcut_skips_expansion_kernels(self):
        from repro.gpusim import Device, DeviceSpec
        from repro import MaxCliqueSolver

        g = gen.planted_clique(300, 10, avg_degree=2.0, seed=0)
        dev = Device(DeviceSpec(memory_bytes=1 << 26))
        r = MaxCliqueSolver(g, device=dev).solve()
        if r.found_by == "heuristic":
            names = set(dev.kernel_breakdown())
            assert "count_cliques" not in names
            assert "shortcut_verify" in names

    def test_never_fires_with_comaximum_cliques(self):
        # two disjoint planted cliques of equal size: the shortcut must
        # not fire (two sublists survive) and both cliques are found
        rng = np.random.default_rng(5)
        from repro.graph.build import graph_union, from_edge_array

        a = gen.planted_clique(200, 8, avg_degree=1.5, seed=1)
        b = gen.planted_clique(200, 8, avg_degree=1.5, seed=2)
        # shift b's ids so the cliques are disjoint
        src, dst = b.to_edge_list()
        b2 = from_edge_array(src + 200, dst + 200, num_vertices=400)
        g = graph_union(a, b2)
        r = find_maximum_cliques(g)
        ref, refc = maximum_cliques_via_bk(g)
        assert r.clique_number == ref
        assert r.num_maximum_cliques == len(refc) >= 2

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_enumeration_safe_under_shortcut(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        q = int(rng.integers(5, 11))
        g = gen.planted_clique(n, min(q, n), avg_degree=2.5, seed=seed)
        r = find_maximum_cliques(g)
        ref, refc = maximum_cliques_via_bk(g)
        assert r.clique_number == ref
        assert r.num_maximum_cliques == len(refc)


class TestEarlyExitLine36:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_early_exit_keeps_omega_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        g = gen.erdos_renyi(n, float(rng.uniform(0.15, 0.6)), seed=seed)
        if g.num_edges == 0:
            return
        ref, _ = maximum_cliques_via_bk(g)
        r = find_maximum_cliques(
            g, enumerate_all=False, early_exit_heuristic=True
        )
        assert r.clique_number == ref
