"""Integration tests: the full solver pipeline against oracles."""

import pytest

from repro import (
    Device,
    DeviceOOMError,
    DeviceSpec,
    Heuristic,
    MaxCliqueSolver,
    SolverConfig,
    find_maximum_cliques,
)
from repro.core.config import config_from_dict
from repro.errors import SolveTimeoutError, SolverConfigError
from repro.graph import from_edge_list
from repro.graph import generators as gen

from ..conftest import assert_is_clique, nx_maximum_cliques

ALL_HEURISTICS = ["none", "single-degree", "single-core", "multi-degree", "multi-core"]


class TestEnumeration:
    @pytest.mark.parametrize("heuristic", ALL_HEURISTICS)
    def test_matches_networkx_random_graphs(self, heuristic):
        for seed in range(12):
            g = gen.erdos_renyi(28, 0.1 + 0.04 * seed, seed=seed)
            omega, want = nx_maximum_cliques(g)
            r = find_maximum_cliques(g, heuristic=heuristic)
            assert r.clique_number == omega
            assert r.num_maximum_cliques == len(want)
            got = {frozenset(row.tolist()) for row in r.cliques}
            assert got == want

    def test_paper_graph(self, paper_graph):
        r = find_maximum_cliques(paper_graph)
        assert r.clique_number == 4
        assert r.num_maximum_cliques == 1
        assert r.cliques[0].tolist() == [1, 2, 3, 4]
        assert r.enumerated_all

    def test_multiple_maximum_cliques(self):
        g = from_edge_list(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        r = find_maximum_cliques(g)
        assert r.clique_number == 3
        assert r.num_maximum_cliques == 2

    def test_report_cap_keeps_exact_count(self):
        g = gen.complete_graph(3)
        # K3 has one max clique; use a path of many edges instead
        g = from_edge_list([(i, i + 1) for i in range(10)])
        r = find_maximum_cliques(g, max_cliques_report=3)
        assert r.clique_number == 2
        assert r.num_maximum_cliques == 10
        assert r.cliques.shape == (3, 2)


class TestTrivialCases:
    def test_empty_graph(self):
        r = find_maximum_cliques(from_edge_list([]))
        assert r.clique_number == 0
        assert r.num_maximum_cliques == 0
        assert r.found_by == "trivial"

    def test_edgeless_graph(self):
        r = find_maximum_cliques(from_edge_list([], num_vertices=5))
        assert r.clique_number == 1
        assert r.num_maximum_cliques == 5
        assert r.cliques.shape[1] == 1

    def test_single_edge(self):
        r = find_maximum_cliques(from_edge_list([(0, 1)]))
        assert r.clique_number == 2
        assert r.num_maximum_cliques == 1


class TestWindowedMode:
    def test_windowed_finds_one(self):
        g = gen.erdos_renyi(40, 0.35, seed=20)
        omega, _ = nx_maximum_cliques(g)
        r = find_maximum_cliques(g, window_size=16)
        assert r.clique_number == omega
        assert r.num_maximum_cliques == 1
        assert not r.enumerated_all
        assert_is_clique(g, r.cliques[0])
        assert len(r.windows) >= 1

    def test_windowed_equals_full(self):
        for seed in range(6):
            g = gen.erdos_renyi(35, 0.3, seed=seed + 40)
            full = find_maximum_cliques(g)
            win = find_maximum_cliques(g, window_size=8)
            assert win.clique_number == full.clique_number

    def test_auto_window(self):
        g = gen.erdos_renyi(30, 0.3, seed=21)
        omega, _ = nx_maximum_cliques(g)
        r = find_maximum_cliques(g, window_size="auto")
        assert r.clique_number == omega


class TestResultMetadata:
    def test_times_and_memory_recorded(self):
        g = gen.erdos_renyi(40, 0.3, seed=22)
        r = find_maximum_cliques(g)
        assert r.model_time_s > 0
        assert r.wall_time_s > 0
        assert r.peak_memory_bytes > 0
        assert r.search_memory_bytes > 0
        assert r.device_stats is not None
        assert r.heuristic.lower_bound <= r.clique_number

    def test_pruned_fraction_bounds(self):
        g = gen.erdos_renyi(40, 0.3, seed=23)
        r = find_maximum_cliques(g)
        assert 0.0 <= r.pruned_fraction <= 1.0

    def test_throughput_and_summary(self):
        g = gen.erdos_renyi(30, 0.3, seed=24)
        r = find_maximum_cliques(g)
        assert r.throughput_eps(g.num_edges) > 0
        assert "omega=" in r.summary()

    def test_heuristic_report_kind(self):
        g = gen.erdos_renyi(25, 0.3, seed=25)
        r = find_maximum_cliques(g, heuristic="multi-core")
        assert r.heuristic.kind == "multi-core"


class TestFailureModes:
    def test_oom_raised_for_tiny_budget(self):
        g = gen.caveman_social(5, 30, p_in=0.6, seed=26)
        dev = Device(DeviceSpec(memory_bytes=96 * 1024))
        with pytest.raises(DeviceOOMError):
            find_maximum_cliques(g, device=dev, heuristic="none")

    def test_oom_never_wrong_answer(self):
        # sweep budgets: every budget either OOMs or gives the oracle answer
        g = gen.caveman_social(3, 25, p_in=0.5, seed=27)
        omega, _ = nx_maximum_cliques(g)
        for shift in range(17, 24):
            dev = Device(DeviceSpec(memory_bytes=1 << shift))
            try:
                r = find_maximum_cliques(g, device=dev)
            except DeviceOOMError:
                continue
            assert r.clique_number == omega

    def test_time_limit(self):
        g = gen.caveman_social(6, 50, p_in=0.5, seed=28)
        with pytest.raises(SolveTimeoutError):
            find_maximum_cliques(g, heuristic="none", time_limit_s=0.001)

    def test_config_and_kwargs_mutually_exclusive(self):
        g = from_edge_list([(0, 1)])
        with pytest.raises(ValueError):
            find_maximum_cliques(g, SolverConfig(), heuristic="none")


class TestConfigValidation:
    def test_string_coercion(self):
        c = SolverConfig(heuristic="multi-core", window_order="asc-degree")
        assert c.heuristic is Heuristic.MULTI_CORE

    def test_bad_window_size(self):
        with pytest.raises(SolverConfigError):
            SolverConfig(window_size=-5)
        with pytest.raises(SolverConfigError):
            SolverConfig(window_size="huge")

    def test_windowed_disables_enumerate_all(self):
        c = SolverConfig(window_size=128)
        assert not c.enumerate_all

    def test_early_exit_requires_find_one(self):
        with pytest.raises(SolverConfigError):
            SolverConfig(early_exit_heuristic=True)
        c = SolverConfig(early_exit_heuristic=True, enumerate_all=False)
        assert c.early_exit_heuristic

    def test_early_exit_excludes_fanout(self):
        # concurrent windows have no early exit: the flag would change
        # the cache key and nothing else
        with pytest.raises(SolverConfigError):
            SolverConfig(window_size=64, window_fanout=3, early_exit_heuristic=True)
        c = SolverConfig(window_size=64, early_exit_heuristic=True)
        assert c.early_exit_heuristic

    def test_bad_time_limit(self):
        for bad in (0, -1.5, float("nan"), float("inf"), 10**400, True):
            with pytest.raises(SolverConfigError):
                SolverConfig(time_limit_s=bad)

    def test_bad_heuristic_runs(self):
        with pytest.raises(SolverConfigError):
            SolverConfig(heuristic_runs=0)

    def test_config_from_dict(self):
        spec = {"heuristic": "none", "window_size": 8}
        assert config_from_dict(spec) == SolverConfig(**spec)
        unknown = r"unknown config key\(s\) \['nope'\]"
        with pytest.raises(SolverConfigError, match=unknown):
            config_from_dict({"nope": 1, "seed": 2})
        for bad in (
            {"heuristic": "zzz"}, {"window_fanout": 0}, {"heuristic_runs": "x"}
        ):
            with pytest.raises(SolverConfigError, match="invalid config"):
                config_from_dict(bad)


class TestSharedDevice:
    def test_stats_accumulate_across_solves(self):
        dev = Device(DeviceSpec(memory_bytes=1 << 26))
        g = gen.erdos_renyi(25, 0.3, seed=29)
        MaxCliqueSolver(g, device=dev).solve()
        launches1 = dev.stats().kernel_launches
        MaxCliqueSolver(g, device=dev).solve()
        assert dev.stats().kernel_launches > launches1

    def test_no_leak_after_solve(self):
        dev = Device(DeviceSpec(memory_bytes=1 << 26))
        g = gen.erdos_renyi(25, 0.3, seed=30)
        before = dev.pool.in_use_bytes
        MaxCliqueSolver(g, device=dev).solve()
        assert dev.pool.in_use_bytes == before
