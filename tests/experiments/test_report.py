"""Report/statistics utility tests."""

import math

import pytest

from repro.experiments.report import (
    format_bytes,
    format_time,
    geometric_mean,
    render_series,
    render_table,
    spearman,
)


class TestRenderTable:
    def test_alignment_and_title(self):
        out = render_table(
            ["name", "value"], [("a", 1.5), ("long-name", 22)], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        out = render_table(["a"], [])
        assert "a" in out

    def test_float_formatting(self):
        out = render_table(["x"], [(0.000123,)])
        assert "0.000123" in out

    def test_nan_rendering(self):
        out = render_table(["x"], [(float("nan"),)])
        assert "nan" in out


class TestRenderSeries:
    def test_basic(self):
        out = render_series("f", [1, 2], [10.0, 20.0], "x", "y")
        assert "f" in out
        assert out.count("\n") == 2

    def test_max_points(self):
        out = render_series("f", list(range(100)), list(range(100)), max_points=5)
        assert out.count("\n") == 5


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_ignores_nonpositive_and_nonfinite(self):
        assert geometric_mean([2, 0, -1, float("inf"), 8]) == pytest.approx(4.0)

    def test_empty_is_nan(self):
        assert math.isnan(geometric_mean([]))


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_handled(self):
        r = spearman([1, 1, 2, 3], [5, 5, 6, 7])
        assert r == pytest.approx(1.0)

    def test_nonmonotone_in_between(self):
        r = spearman([1, 2, 3, 4], [1, 3, 2, 4])
        assert -1.0 < r < 1.0

    def test_degenerate(self):
        assert math.isnan(spearman([1], [2]))
        assert math.isnan(spearman([1, 1], [2, 2]))


class TestFormatters:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.00 KiB"
        assert "MiB" in format_bytes(5 * 2**20)

    def test_time(self):
        assert "us" in format_time(5e-6)
        assert "ms" in format_time(5e-3)
        assert format_time(2.5) == "2.50 s"
