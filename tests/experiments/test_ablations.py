"""Ablation runner tests on a tiny suite slice."""

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
