"""CLI tests (in-process via ``repro.cli.main``)."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.graph import generators as gen
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.edges"
    write_edge_list(gen.planted_clique(120, 7, avg_degree=3.0, seed=1), path)
    return str(path)


class TestSolve:
    def test_solve_file(self, graph_file, capsys):
        assert main(["solve", graph_file]) == 0
        out = capsys.readouterr().out
        assert "omega=7" in out
        assert "clique:" in out

    def test_solve_dataset_name(self, capsys):
        assert main(["solve", "soc-comm-10x50", "--max-report", "1"]) == 0
        out = capsys.readouterr().out
        assert "omega=" in out

    def test_solve_windowed(self, graph_file, capsys):
        assert main(["solve", graph_file, "--window", "64", "--adaptive"]) == 0
        assert "omega=7" in capsys.readouterr().out

    def test_solve_oom_exit_code(self, capsys):
        code = main(
            ["solve", "fb-comm-20x130", "--heuristic", "none", "--memory-mib", "2"]
        )
        assert code == 2
        assert "OOM" in capsys.readouterr().out

    def test_unknown_graph(self):
        with pytest.raises(SystemExit):
            main(["solve", "definitely-not-a-graph"])

    def test_solve_json(self, graph_file, capsys):
        import json

        assert main(["solve", graph_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clique_number"] == 7
        assert payload["num_maximum_cliques"] >= 1
        assert payload["heuristic"]["kind"] == "multi-degree"
        assert len(payload["cliques"][0]) == 7


class TestInfo:
    def test_info(self, graph_file, capsys):
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "degeneracy" in out
        assert "prunability" in out

    def test_info_no_triangles(self, graph_file, capsys):
        assert main(["info", graph_file, "--no-triangles"]) == 0
        assert "triangles" not in capsys.readouterr().out


class TestDatasets:
    def test_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "road-grid-60" in out
        assert out.count("\n") == 58

    def test_category_filter(self, capsys):
        assert main(["datasets", "--category", "road"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 8


class TestCompare:
    def test_compare(self, graph_file, capsys):
        assert main(["compare", graph_file]) == 0
        out = capsys.readouterr().out
        assert "breadth-first" in out
        assert "PMC" in out
        assert "warp-parallel" in out
        assert "disagree" not in out

    def test_compare_covers_every_problem_kind(self, graph_file, capsys):
        # exit 0 means every kind row agreed with its CPU oracle
        assert main(["compare", graph_file]) == 0
        out = capsys.readouterr().out
        assert "k-clique-count (k=3)" in out
        assert "maximal-enum" in out
        assert "CPU oracle" in out
        assert "disagree" not in out

    def test_compare_k_flag_sets_the_count_row(self, graph_file, capsys):
        assert main(["compare", graph_file, "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "k-clique-count (k=4)" in out
        assert "disagree" not in out


class TestTrace:
    STAGES = ["csr_upload", "preprocess", "heuristic", "setup", "bfs"]

    def test_solve_trace_json(self, graph_file, tmp_path, capsys):
        import json

        trace_file = tmp_path / "trace.json"
        assert main(["solve", graph_file, "--trace", str(trace_file)]) == 0
        assert f"wrote {trace_file}" in capsys.readouterr().out
        payload = json.loads(trace_file.read_text())
        assert payload["schema"] == "repro-trace/1"
        span_names = [s["name"] for s in payload["spans"]]
        for stage in self.STAGES:  # >= 1 span per pipeline stage
            assert span_names.count(stage) >= 1
        assert payload["kernels"], "expected per-kernel events"
        assert all(k["span"] in span_names for k in payload["kernels"])
        assert payload["counters"]["setup.kept_2cliques"] >= 0

    def test_solve_trace_chrome(self, graph_file, tmp_path):
        import json

        chrome_file = tmp_path / "trace.chrome.json"
        assert main(
            ["solve", graph_file, "--trace-chrome", str(chrome_file)]
        ) == 0
        payload = json.loads(chrome_file.read_text())
        events = payload["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert set(self.STAGES) <= names

    def test_trace_does_not_change_result(self, graph_file, tmp_path, capsys):
        import json

        assert main(["solve", graph_file, "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        trace_file = tmp_path / "t.json"
        assert main(
            ["solve", graph_file, "--json", "--trace", str(trace_file)]
        ) == 0
        traced = json.loads(capsys.readouterr().out)
        traced.pop("wall_time_s"), plain.pop("wall_time_s")
        assert traced == plain  # includes exact model_time_s

    def test_windowed_trace_spans(self, graph_file, tmp_path):
        import json

        trace_file = tmp_path / "trace.json"
        assert main(
            ["solve", graph_file, "--window", "64", "--trace", str(trace_file)]
        ) == 0
        span_names = [
            s["name"] for s in json.loads(trace_file.read_text())["spans"]
        ]
        assert "windowed" in span_names
        assert "bfs" not in span_names

    def test_compare_shares_one_trace(self, graph_file, tmp_path):
        import json

        trace_file = tmp_path / "trace.json"
        assert main(["compare", graph_file, "--trace", str(trace_file)]) == 0
        payload = json.loads(trace_file.read_text())
        names = {s["name"] for s in payload["spans"]}
        assert {"bfs", "pmc.search", "gpu_dfs.search"} <= names

    def test_trace_written_on_oom(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "trace.json"
        code = main(
            [
                "solve", "fb-comm-20x130", "--heuristic", "none",
                "--memory-mib", "2", "--trace", str(trace_file),
            ]
        )
        assert code == 2
        payload = json.loads(trace_file.read_text())  # partial trace
        assert payload["kernels"]


class TestLogLevel:
    def test_debug_shows_stage_breakdown(self, graph_file, capsys):
        assert main(["--log-level", "debug", "solve", graph_file]) == 0
        assert "stages:" in capsys.readouterr().out

    def test_default_hides_stage_breakdown(self, graph_file, capsys):
        assert main(["solve", graph_file]) == 0
        assert "stages:" not in capsys.readouterr().out

    def test_error_level_silences_info(self, graph_file, capsys):
        assert main(["--log-level", "error", "solve", graph_file]) == 0
        assert capsys.readouterr().out == ""


#: the flags every client verb, ``watch`` and ``cluster-status`` share
CLIENT = {
    "--host": "127.0.0.1", "--port": None, "--retries": 5, "--wait": 120.0,
    "--addr": None,
}

#: every option of every subcommand, with its default
OPTIONS = {
    "solve": {
        "--problem": "max-clique", "--k": None, "--heuristic": "multi-degree",
        "--window": None, "--window-order": "natural", "--adaptive": False,
        "--memory-mib": 192, "--time-limit": None, "--timeout": None,
        "--max-report": 20, "--json": False, "--checkpoint": None,
        "--trace": None, "--trace-chrome": None,
    },
    "batch": {
        "--devices": 1, "--policy": "fifo", "--cache-size": 128,
        "--memory-mib": 192, "--timeout": None, "--max-attempts": 3,
        "--executor": "serial", "--workers": None, "--fault-plan": None,
        "--json": False, "--output": None, "--trace": None,
        "--trace-chrome": None,
    },
    "info": {"--no-triangles": False},
    "datasets": {"--category": None, "--sizes": False},
    "compare": {
        "--memory-mib": 192, "--k": 3, "--trace": None, "--trace-chrome": None,
    },
    "serve": {
        "--host": "127.0.0.1", "--port": None, "--workers": 1,
        "--max-conns": 32, "--rate": 0.0, "--burst": 8, "--queue-depth": 64,
        "--max-frame-mib": 8, "--drain-timeout": 60.0, "--devices": 1,
        "--policy": "fifo", "--cache-size": 128, "--memory-mib": 192,
        "--timeout": None, "--max-attempts": 3,
    },
    "router": {
        "--backends": None, "--host": "127.0.0.1", "--port": None,
        "--replicas": 64, "--max-conns": 64, "--max-frame-mib": 8,
        "--probe-interval": 0.5, "--down-threshold": 3,
        "--checkpoint-poll": 0.25, "--drain-timeout": 60.0,
        "--jitter-seed": None,
    },
    "chaos-proxy": {
        "--upstream": None, "--host": "127.0.0.1", "--port": 0,
        "--plan": None, "--max-frame-mib": 8,
    },
    "client solve": {
        "--problem": "max-clique", "--k": None, "--heuristic": "multi-degree",
        "--window": None, "--window-order": "natural", "--adaptive": False,
        "--timeout": None, "--deadline": None, "--max-report": 20,
        "--json": False, **CLIENT,
    },
    "client stats": {"--json": False, **CLIENT},
    "client shutdown": dict(CLIENT),
    "client mutate": {
        "--insert": None, "--delete": None, "--json": False, **CLIENT,
    },
    "client close-session": dict(CLIENT),
    "watch": {
        "--graph": None, "--max-updates": None, "--json": False, **CLIENT,
    },
    "cluster-status": {"--json": False, **CLIENT},
}


def _subcommand(parser, name):
    """The parser of subcommand ``name`` (``"client solve"`` descends)."""
    for word in name.split():
        sub = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        parser = sub.choices[word]
    return parser


class TestOptions:
    def test_every_subcommand_is_pinned(self):
        parser = build_parser()
        names = set()
        for name in ("", "client"):
            sub = next(
                a for a in _subcommand(parser, name)._actions
                if isinstance(a, argparse._SubParsersAction)
            )
            names |= {f"{name} {verb}".strip() for verb in sub.choices}
        assert names - {"client"} == set(OPTIONS)

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_option_names_and_defaults(self, command):
        """The shared argument groups keep each subcommand's flags."""
        options = {
            flag: action.default
            for action in _subcommand(build_parser(), command)._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        assert options == OPTIONS[command]
