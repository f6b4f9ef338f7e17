"""Smoke tests for table/figure generators on a tiny suite slice.

Full-suite shape assertions live in the benchmark harness; here we
check the machinery end-to-end on the smallest datasets.
"""

from repro.experiments.figures import figure2, figure3, figure4, figure5, figure6
from repro.experiments.tables import table1, table2

# the smallest few datasets keep this fast; sweeps are lru_cached so
# the cost is paid once per session
LIMIT = dict(max_edges=9_000, timeout_s=60.0)


class TestTable1:
    def test_rows_and_render(self):
        t = table1(**LIMIT)
        assert t.total >= 4
        names = [row[0] for row in t.rows]
        assert names[:5] == [
            "none", "single-degree", "single-core", "multi-degree", "multi-core",
        ]
        assert names[-1] == "rossi-pmc"
        out = t.render()
        assert "Mean Error" in out

    def test_error_ordering_multi_beats_single(self):
        t = table1(**LIMIT)
        by = t.by_heuristic()
        assert by["multi-degree"][0] <= by["single-degree"][0]
        assert by["none"][0] >= by["multi-degree"][0]

    def test_errors_in_unit_range(self):
        t = table1(**LIMIT)
        for _, err, solved, oom in t.rows:
            assert 0.0 <= err <= 1.0
            assert 0.0 <= oom <= 1.0
            assert 0 <= solved <= t.total


class TestTable2:
    def test_groups_partition_suite(self):
        t1 = table1(**LIMIT)
        t2 = table2(**LIMIT)
        assert sum(t2.group_sizes.values()) <= t1.total
        out = t2.render()
        assert "Baseline" in out

    def test_cells_positive(self):
        t2 = table2(**LIMIT)
        for row in t2.cells.values():
            for v in row.values():
                if v == v:  # not NaN
                    assert v > 0


class TestFigures:
    def test_figure2_rows(self):
        fig = figure2(**LIMIT)
        assert len(fig.rows) >= 4
        assert "Spearman" in fig.render()

    def test_figure3_rows(self):
        fig = figure3(**LIMIT)
        xs = [x for _, x, _, _ in fig.rows]
        assert min(x for x in xs) > 0

    def test_figure4_speedups(self):
        fig = figure4(**LIMIT)
        assert len(fig.rows) >= 4
        assert fig.bf_geomean > 0
        assert "geo-mean BF speedup" in fig.render()

    def test_figure5_panels(self):
        fig = figure5(**LIMIT)
        assert len(fig.runtime_rows) >= 4
        assert len(fig.quality_rows) >= 16  # 4 heuristics x >=4 datasets
        for _, _, acc, pruned in fig.quality_rows:
            assert 0.0 <= acc <= 1.0
            assert 0.0 <= pruned <= 1.0
        fig.render()

    def test_figure6_memory(self):
        fig = figure6(**LIMIT)
        assert len(fig.rows) >= 3
        for w in (1024, 32768):
            red = fig.mean_reduction(w)
            assert red == red  # defined
            assert red <= 1.0
        fig.render()

    def test_figure6_runtime_cost(self):
        fig = figure6(**LIMIT)
        # windowing never speeds things up on average (Section V-C2)
        g = fig.runtime_geomean(1024)
        assert g == g and g <= 1.2
