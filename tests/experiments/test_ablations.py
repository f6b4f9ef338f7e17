"""Ablation runner tests on a tiny suite slice."""

from types import SimpleNamespace

from repro.core.config import SolverConfig
from repro.experiments import ablations
from repro.experiments.ablations import (
    coloring_preprune_ablation,
    orientation_ablation,
    sublist_order_ablation,
    window_fanout_ablation,
)

TINY = dict(max_edges=9_000, limit=4, timeout_s=60.0)


class TestOrientationAblation:
    def test_runs_and_agrees(self):
        r = orientation_ablation(**TINY)
        assert r.arms == ("degree", "index")
        assert len(r.rows) == 4
        for _, recs in r.rows:
            omegas = {rec.omega for rec in recs.values() if rec.ok}
            assert len(omegas) == 1

    def test_degree_orientation_prunes_at_least_as_much(self):
        r = orientation_ablation(**TINY)
        for recs in r.agreeing_rows():
            assert (
                recs["degree"].pruned_fraction
                >= recs["index"].pruned_fraction - 1e-9
            )

    def test_render(self):
        r = orientation_ablation(**TINY)
        out = r.render()
        assert "Ablation" in out and "degree" in out


class TestOtherAblations:
    def test_sublist_order(self):
        r = sublist_order_ablation(**TINY)
        assert len(r.agreeing_rows()) >= 3
        ratio = r.geomean_time_ratio("degree-sorted", "natural")
        assert 0.3 < ratio < 3.0

    def test_coloring_preprune(self):
        r = coloring_preprune_ablation(**TINY)
        for recs in r.agreeing_rows():
            assert (
                recs["colored"].pruned_fraction
                >= recs["plain"].pruned_fraction - 1e-9
            )

    def test_window_fanout(self):
        r = window_fanout_ablation(**TINY)
        assert len(r.agreeing_rows()) >= 3
        # concurrency is never slower in model time
        ratio = r.geomean_time_ratio("fanout-8", "fanout-1")
        assert ratio <= 1.01


class TestArmConfigs:
    def test_arm_reaches_run_config_unchanged(self, monkeypatch):
        seen = []

        def fake_run_config(spec, graph, config, device_spec, timeout_s):
            seen.append(config)
            return SimpleNamespace(ok=False, omega=0)

        monkeypatch.setattr(ablations, "run_config", fake_run_config)
        arm = SolverConfig(
            enumerate_all=False, early_exit_heuristic=True,
            time_limit_s=5.0, omega_floor=3,
        )
        ablations._run_arms("copy", {"arm": arm}, 9_000, 1, None, 60.0)
        (config,) = seen
        assert config == arm
        # a copy: run_config may write its time limit into it
        assert config is not arm
