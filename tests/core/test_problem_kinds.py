"""Problem kinds: the multi-problem level-loop platform.

Every kind must match its independent CPU oracle through every solver
path (full, windowed, fanout), be byte-deterministic across repeated
runs, and refuse the configurations that are unsound for it
(ω̄ optimisations, checkpoint/resume).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Device, DeviceSpec, find_maximum_cliques
from repro.baselines import count_k_cliques_reference, maximal_clique_set
from repro.core import MaxCliqueSolver, SolverConfig
from repro.core.config import (
    FINGERPRINT_VERSION,
    PROBLEM_KINDS,
    config_fingerprint,
)
from repro.core.result import KCliqueCountResult, MaximalEnumResult
from repro.engine import (
    KCliqueCountKind,
    MAX_CLIQUE,
    MaximalEnumKind,
    resolve_kind,
)
from repro.engine.sweep import window_sweep
from repro.errors import CheckpointError, SolverConfigError
from repro.graph import from_edge_list
from repro.graph import generators as gen

MIB = 1 << 20

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_n=22):
    n = draw(st.integers(2, max_n))
    density = draw(st.floats(0.05, 0.7))
    seed = draw(st.integers(0, 2**31 - 1))
    return gen.erdos_renyi(n, density, seed=seed)


def _solve(graph, **config_kwargs):
    device = Device(DeviceSpec(memory_bytes=192 * MIB))
    return MaxCliqueSolver(graph, SolverConfig(**config_kwargs), device).solve()


class TestConfigValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SolverConfigError, match="unknown problem kind"):
            SolverConfig(problem="chromatic-number")

    def test_kclique_requires_positive_int_k(self):
        with pytest.raises(SolverConfigError, match="positive integer k"):
            SolverConfig(problem="k-clique-count")
        with pytest.raises(SolverConfigError, match="positive integer k"):
            SolverConfig(problem="k-clique-count", k=0)
        with pytest.raises(SolverConfigError, match="positive integer k"):
            SolverConfig(problem="k-clique-count", k=True)

    def test_k_forbidden_for_other_kinds(self):
        with pytest.raises(SolverConfigError, match="only meaningful"):
            SolverConfig(k=3)
        with pytest.raises(SolverConfigError, match="only meaningful"):
            SolverConfig(problem="maximal-enum", k=3)

    def test_omega_bound_optimisations_are_max_clique_only(self):
        with pytest.raises(SolverConfigError, match="max-clique only"):
            SolverConfig(
                problem="maximal-enum",
                early_exit_heuristic=True,
                enumerate_all=False,
            )
        with pytest.raises(SolverConfigError, match="max-clique only"):
            SolverConfig(problem="k-clique-count", k=3, coloring_preprune=True)

    def test_resolve_kind_covers_every_name(self):
        assert resolve_kind(SolverConfig()) is MAX_CLIQUE
        kc = resolve_kind(SolverConfig(problem="k-clique-count", k=4))
        assert isinstance(kc, KCliqueCountKind) and kc.stop_level == 4
        assert isinstance(
            resolve_kind(SolverConfig(problem="maximal-enum")), MaximalEnumKind
        )
        assert set(PROBLEM_KINDS) == {
            "max-clique", "k-clique-count", "maximal-enum"
        }


class TestFingerprint:
    def test_version_prefix(self):
        fp = config_fingerprint(SolverConfig())
        assert fp.startswith(FINGERPRINT_VERSION + ";")

    def test_kinds_fingerprint_differently(self):
        fps = {
            config_fingerprint(SolverConfig()),
            config_fingerprint(SolverConfig(problem="k-clique-count", k=3)),
            config_fingerprint(SolverConfig(problem="k-clique-count", k=4)),
            config_fingerprint(SolverConfig(problem="maximal-enum")),
        }
        assert len(fps) == 4


class TestKCliqueCount:
    @given(random_graphs(), st.integers(3, 6))
    @settings(**SETTINGS)
    def test_full_search_matches_reference(self, g, k):
        result = _solve(g, problem="k-clique-count", k=k)
        assert isinstance(result, KCliqueCountResult)
        assert result.count == count_k_cliques_reference(g, k)

    @given(
        random_graphs(max_n=18),
        st.sampled_from([3, 4]),
        st.sampled_from([5, 16]),
        st.sampled_from([1, 3]),
    )
    @settings(**SETTINGS)
    def test_windowed_matches_full(self, g, k, window, fanout):
        full = _solve(g, problem="k-clique-count", k=k)
        win = _solve(
            g, problem="k-clique-count", k=k, window_size=window,
            window_fanout=fanout,
        )
        assert win.count == full.count == count_k_cliques_reference(g, k)

    def test_trivial_ks_short_circuit(self):
        g = gen.erdos_renyi(30, 0.2, seed=1)
        r1 = _solve(g, problem="k-clique-count", k=1)
        assert r1.count == g.num_vertices and r1.found_by == "trivial"
        r2 = _solve(g, problem="k-clique-count", k=2)
        assert r2.count == g.num_edges and r2.found_by == "trivial"

    def test_empty_and_edgeless_graphs(self):
        empty = from_edge_list([], num_vertices=0)
        assert _solve(empty, problem="k-clique-count", k=3).count == 0
        edgeless = from_edge_list([], num_vertices=5)
        assert _solve(edgeless, problem="k-clique-count", k=3).count == 0

    def test_k_above_omega_counts_zero(self):
        g = gen.planted_clique(80, 5, avg_degree=4.0, seed=3)
        assert _solve(g, problem="k-clique-count", k=7).count == 0

    def test_deterministic_across_runs(self):
        g = gen.caveman_social(4, 25, p_in=0.4, seed=9)
        runs = [
            _solve(g, problem="k-clique-count", k=4, window_size=64)
            for _ in range(2)
        ]
        assert runs[0].count == runs[1].count
        assert runs[0].model_time_s == runs[1].model_time_s
        assert [s.__dict__ for s in runs[0].levels] == [
            s.__dict__ for s in runs[1].levels
        ]


class TestMaximalEnum:
    @given(random_graphs())
    @settings(**SETTINGS)
    def test_full_search_matches_bron_kerbosch(self, g):
        result = _solve(g, problem="maximal-enum")
        assert isinstance(result, MaximalEnumResult)
        oracle = maximal_clique_set(g)
        assert result.num_maximal_cliques == len(oracle)
        assert list(result.cliques) == oracle
        assert result.max_clique_size == (len(oracle[-1]) if oracle else 0)

    @given(random_graphs(max_n=18), st.sampled_from([4, 11]), st.sampled_from([1, 3]))
    @settings(**SETTINGS)
    def test_windowed_matches_full(self, g, window, fanout):
        full = _solve(g, problem="maximal-enum")
        win = _solve(
            g, problem="maximal-enum", window_size=window, window_fanout=fanout
        )
        assert win.num_maximal_cliques == full.num_maximal_cliques
        assert list(win.cliques) == list(full.cliques)

    def test_isolated_vertices_are_singleton_cliques(self):
        # a triangle plus two isolated vertices
        g = from_edge_list([(0, 1), (1, 2), (0, 2)], num_vertices=5)
        result = _solve(g, problem="maximal-enum")
        assert result.num_maximal_cliques == 3
        assert list(result.cliques) == [(3,), (4,), (0, 1, 2)]

    def test_omega_agrees_with_max_clique_solve(self):
        g = gen.caveman_social(5, 30, p_in=0.35, seed=2)
        enum = _solve(g, problem="maximal-enum")
        assert enum.max_clique_size == find_maximum_cliques(g).clique_number

    def test_report_cap_truncates_but_count_stays_exact(self):
        g = gen.erdos_renyi(30, 0.4, seed=4)
        full = _solve(g, problem="maximal-enum")
        capped = _solve(g, problem="maximal-enum", max_cliques_report=3)
        assert capped.num_maximal_cliques == full.num_maximal_cliques
        assert len(capped.cliques) == 3
        assert not capped.enumerated_all

    def test_deterministic_across_runs(self):
        g = gen.erdos_renyi(35, 0.3, seed=12)
        runs = [_solve(g, problem="maximal-enum", window_size=32) for _ in range(2)]
        assert list(runs[0].cliques) == list(runs[1].cliques)
        assert runs[0].model_time_s == runs[1].model_time_s


class TestCheckpointGuards:
    def test_window_sweep_refuses_checkpoint_for_non_default_kind(self):
        g = gen.erdos_renyi(20, 0.3, seed=6)
        from repro.core.setup import build_two_clique_list

        device = Device(DeviceSpec(memory_bytes=64 * MIB))
        src, dst, _ = build_two_clique_list(g, 2, device)
        with pytest.raises(ValueError, match="checkpoint/resume"):
            window_sweep(
                g,
                src,
                dst,
                0,
                np.zeros(0, dtype=np.int32),
                device,
                8,
                kind=MaximalEnumKind(),
                checkpoint_sink=lambda ckpt: None,
            )

    def test_solver_refuses_checkpoint_sink_for_non_default_kind(self):
        g = gen.erdos_renyi(20, 0.3, seed=6)
        device = Device(DeviceSpec(memory_bytes=64 * MIB))
        solver = MaxCliqueSolver(
            g,
            SolverConfig(problem="maximal-enum", window_size=8),
            device,
            checkpoint_sink=lambda ckpt: None,
        )
        with pytest.raises(CheckpointError, match="max-clique"):
            solver.solve()

    def test_find_maximum_cliques_is_max_clique_only(self):
        g = gen.erdos_renyi(10, 0.3, seed=0)
        with pytest.raises(SolverConfigError, match="max-clique only"):
            find_maximum_cliques(g, problem="maximal-enum")


class TestDefaultKindUnchanged:
    def test_max_clique_state_free(self):
        """The default kind must not grow result surface or state."""
        g = gen.erdos_renyi(25, 0.3, seed=8)
        result = _solve(g)
        assert result.problem == "max-clique"
        assert not hasattr(result, "count")
