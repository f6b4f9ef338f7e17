"""Job-file parsing: schema, defaults merging, loud failures."""

import json

import pytest

from repro.errors import JobSpecError
from repro.graph import generators as gen
from repro.graph.io import write_edge_list
from repro.service import load_jobs, parse_jobs, resolve_graph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.edges"
    write_edge_list(gen.planted_clique(60, 5, avg_degree=3.0, seed=2), path)
    return str(path)


class TestResolveGraph:
    def test_file_path(self, graph_file):
        assert resolve_graph(graph_file).num_vertices == 60

    def test_dataset_name(self):
        assert resolve_graph("road-grid-60").num_vertices == 3600

    def test_unknown_raises_jobspec(self):
        with pytest.raises(JobSpecError, match="neither"):
            resolve_graph("no-such-graph")


class TestParseJobs:
    def test_bare_list(self, graph_file):
        reqs = parse_jobs([{"graph": graph_file}])
        assert len(reqs) == 1
        assert reqs[0].label == graph_file  # label defaults to graph name
        assert reqs[0].job_id is None  # service assigns later

    def test_full_schema(self, graph_file):
        reqs = parse_jobs(
            {
                "defaults": {"timeout_s": 5.0, "config": {"heuristic": "none"}},
                "jobs": [
                    {
                        "id": "a",
                        "graph": graph_file,
                        "priority": 2,
                        "label": "first",
                        "config": {"window_size": 64, "enumerate_all": False},
                    },
                    {"graph": graph_file, "timeout_s": 1.0},
                ],
            }
        )
        a, b = reqs
        assert (a.job_id, a.priority, a.timeout_s, a.label) == ("a", 2, 5.0, "first")
        # job config merges over defaults.config
        assert a.config.window_size == 64
        assert a.config.heuristic.value == "none"
        assert b.timeout_s == 1.0
        assert b.config.window_size is None

    def test_unknown_job_key(self, graph_file):
        with pytest.raises(JobSpecError, match="confg"):
            parse_jobs([{"graph": graph_file, "confg": {}}])

    def test_unknown_config_key(self, graph_file):
        with pytest.raises(JobSpecError, match="heuristc"):
            parse_jobs([{"graph": graph_file, "config": {"heuristc": "none"}}])

    @pytest.mark.parametrize(
        "timeout_s",
        [0, -1, "soon", True, 10**400],
        ids=["zero", "negative", "string", "bool", "past-float-range"],
    )
    def test_bad_timeout_refused(self, graph_file, timeout_s):
        with pytest.raises(JobSpecError, match="timeout_s"):
            parse_jobs([{"graph": graph_file, "timeout_s": timeout_s}])
        with pytest.raises(JobSpecError, match="timeout_s"):
            parse_jobs(
                {"defaults": {"timeout_s": timeout_s}, "jobs": [{"graph": graph_file}]}
            )

    @pytest.mark.parametrize(
        "priority", ["soon", 1.5, True, None],
        ids=["string", "float", "bool", "null"],
    )
    def test_bad_priority_refused(self, graph_file, priority):
        with pytest.raises(JobSpecError, match=r"job #0: 'priority'"):
            parse_jobs([{"graph": graph_file, "priority": priority}])
        with pytest.raises(JobSpecError, match=r"job #0: 'priority'"):
            parse_jobs(
                {"defaults": {"priority": priority}, "jobs": [{"graph": graph_file}]}
            )

    def test_invalid_config_combination(self, graph_file):
        with pytest.raises(JobSpecError, match="invalid config"):
            parse_jobs(
                [{"graph": graph_file, "config": {"adaptive_windowing": True}}]
            )

    def test_unknown_top_level_key(self):
        with pytest.raises(JobSpecError, match="top-level"):
            parse_jobs({"jobs": [], "extra": 1})

    def test_missing_jobs(self):
        with pytest.raises(JobSpecError, match="jobs"):
            parse_jobs({"defaults": {}})

    def test_empty_jobs_list(self):
        with pytest.raises(JobSpecError, match="non-empty"):
            parse_jobs([])

    def test_graph_required(self):
        with pytest.raises(JobSpecError, match="graph"):
            parse_jobs([{"id": "a"}])


class TestLoadJobs:
    def test_round_trip(self, tmp_path, graph_file):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"graph": graph_file}]))
        assert len(load_jobs(path)) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(JobSpecError, match="cannot read"):
            load_jobs(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(JobSpecError, match="not valid JSON"):
            load_jobs(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff\xfe[{"graph": "g"}]')
        with pytest.raises(JobSpecError, match="not valid JSON"):
            load_jobs(path)

    def test_over_long_integer(self, tmp_path, graph_file):
        # json.loads raises a plain ValueError past the int digit limit
        path = tmp_path / "long.json"
        path.write_text(
            '[{"graph": %s, "priority": %s}]' % (json.dumps(graph_file), "9" * 5000)
        )
        with pytest.raises(JobSpecError, match="not valid JSON"):
            load_jobs(path)
