"""k-clique profile tests against independent oracles."""

from itertools import combinations

import pytest

from repro.core.clique_counts import clique_profile, count_k_cliques
from repro.errors import DeviceOOMError
from repro.graph import from_edge_list, triangle_count
from repro.graph import generators as gen
from repro.gpusim import Device, DeviceSpec


def brute_profile(graph):
    """Exhaustive k-clique counts for tiny graphs."""
    n = graph.num_vertices
    adj = [set(graph.neighbors(v).tolist()) for v in range(n)]
    out = {}
    k = 1
    while True:
        count = sum(
            1
            for combo in combinations(range(n), k)
            if all(b in adj[a] for a, b in combinations(combo, 2))
        )
        if count == 0:
            break
        out[k] = count
        k += 1
    return out


class TestCliqueProfile:
    def test_complete_graph_binomials(self):
        profile = clique_profile(gen.complete_graph(5))
        assert profile == {1: 5, 2: 10, 3: 10, 4: 5, 5: 1}

    def test_triangle_level_matches_triangle_count(self):
        g = gen.erdos_renyi(40, 0.3, seed=1)
        profile = clique_profile(g)
        assert profile.get(3, 0) == triangle_count(g)

    def test_matches_brute_force(self):
        for seed in range(8):
            g = gen.erdos_renyi(14, 0.45, seed=seed)
            assert clique_profile(g) == brute_profile(g)

    def test_max_k_cutoff(self):
        g = gen.complete_graph(6)
        profile = clique_profile(g, max_k=3)
        assert set(profile) == {1, 2, 3}

    def test_empty_and_edgeless(self):
        assert clique_profile(from_edge_list([])) == {}
        assert clique_profile(from_edge_list([], num_vertices=3)) == {1: 3}

    def test_oom_on_tiny_device(self):
        g = gen.caveman_social(4, 40, p_in=0.6, seed=2)
        with pytest.raises(DeviceOOMError):
            clique_profile(g, device=Device(DeviceSpec(memory_bytes=1 << 16)))


class TestCountKCliques:
    def test_specific_k(self):
        g = gen.complete_graph(6)
        assert count_k_cliques(g, 3) == 20
        assert count_k_cliques(g, 6) == 1
        assert count_k_cliques(g, 7) == 0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            count_k_cliques(gen.complete_graph(3), 0)
