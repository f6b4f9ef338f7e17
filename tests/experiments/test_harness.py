"""Experiment harness tests on a small suite slice."""

import pytest

from repro.core.config import Heuristic, SolverConfig
from repro.datasets.suite import SUITE, load
from repro.experiments.harness import (
    best_run,
    heuristic_probe,
    pmc_reference,
    run_config,
    sweep_heuristics,
)
from repro.gpusim.spec import DeviceSpec

SMALL = SUITE[0]  # road-grid-60: fast under every configuration


@pytest.fixture(scope="module")
def small_graph():
    return load(SMALL.name)


class TestRunConfig:
    def test_ok_outcome_filled(self, small_graph):
        rec = run_config(SMALL, small_graph, SolverConfig())
        assert rec.ok
        assert rec.omega >= 3
        assert rec.model_time_s > 0
        assert rec.throughput_eps > 0
        assert rec.dataset == SMALL.name
        assert rec.config_label.startswith("multi-degree")

    def test_oom_outcome(self, small_graph):
        tiny = DeviceSpec(memory_bytes=64 * 1024)
        rec = run_config(SMALL, small_graph, SolverConfig(), device_spec=tiny)
        assert rec.outcome == "oom"
        assert not rec.ok
        assert rec.throughput_eps == 0.0

    def test_timeout_outcome(self, small_graph):
        rec = run_config(
            SMALL, small_graph, SolverConfig(), timeout_s=1e-4
        )
        assert rec.outcome == "timeout"

    def test_windowed_label(self, small_graph):
        rec = run_config(
            SMALL, small_graph, SolverConfig(window_size=1024)
        )
        assert "win=1024" in rec.config_label
        assert rec.windows >= 1


class TestSweepAndBest:
    def test_sweep_covers_all_heuristics(self, small_graph):
        recs = sweep_heuristics(SMALL, small_graph)
        assert [r.config_label for r in recs] == [
            "none",
            "single-degree",
            "single-core",
            "multi-degree",
            "multi-core",
        ]
        omegas = {r.omega for r in recs if r.ok}
        assert len(omegas) == 1  # all configurations agree on omega

    def test_best_run_picks_fastest(self, small_graph):
        recs = sweep_heuristics(SMALL, small_graph)
        best = best_run(recs)
        assert best is not None
        assert best.model_time_s == min(r.model_time_s for r in recs if r.ok)

    def test_best_run_none_when_all_fail(self):
        assert best_run([]) is None


class TestReferencesAndProbes:
    def test_pmc_reference_matches_solver(self, small_graph):
        ref = pmc_reference(SMALL)
        rec = run_config(SMALL, small_graph, SolverConfig())
        assert ref.clique_number == rec.omega

    def test_heuristic_probe(self, small_graph):
        probe = heuristic_probe(SMALL, small_graph, Heuristic.MULTI_DEGREE)
        assert probe.lower_bound >= 2
        assert probe.model_time_s > 0
        assert 0.0 <= probe.setup_pruned_fraction <= 1.0

    def test_probe_core_variant_costs_more(self, small_graph):
        deg = heuristic_probe(SMALL, small_graph, Heuristic.SINGLE_DEGREE)
        core = heuristic_probe(SMALL, small_graph, Heuristic.SINGLE_CORE)
        # the k-core decomposition makes core variants slower (Fig. 5a)
        assert core.model_time_s > deg.model_time_s
