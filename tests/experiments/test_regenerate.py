"""Regeneration CLI tests (tiny suite slice)."""

import io

from repro.experiments.regenerate import main, regenerate


class TestRegenerate:
    def test_report_contains_all_artifacts(self):
        buf = io.StringIO()
        regenerate(max_edges=9_000, timeout_s=60.0, out=buf)
        text = buf.getvalue()
        for marker in (
            "Table I",
            "Table II",
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "total regeneration time",
        ):
            assert marker in text, marker

    def test_main_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(
            ["--max-edges", "9000", "--timeout", "60", "--out", str(out)]
        )
        assert code == 0
        assert "Table I" in out.read_text()
        # also streamed to stdout
        assert "Table I" in capsys.readouterr().out
