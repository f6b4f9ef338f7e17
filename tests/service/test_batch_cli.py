"""``repro batch`` and the solve ``--timeout`` plumbing (in-process)."""

import json

import pytest

from repro.cli import main
from repro.graph import generators as gen
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.edges"
    write_edge_list(gen.planted_clique(120, 7, avg_degree=3.0, seed=1), path)
    return str(path)


@pytest.fixture
def jobs_file(tmp_path, graph_file):
    """Three jobs; the duplicate of the first must hit the cache."""
    path = tmp_path / "jobs.json"
    path.write_text(
        json.dumps(
            [
                {"id": "first", "graph": graph_file},
                {"id": "again", "graph": graph_file},
                {"id": "other", "graph": "road-grid-60"},
            ]
        )
    )
    return str(path)


class TestBatch:
    def test_text_output(self, jobs_file, capsys):
        assert main(["batch", jobs_file]) == 0
        out = capsys.readouterr().out
        assert "job first" in out and "job again" in out
        assert "3/3 ok" in out
        assert "1 cache hit(s)" in out

    def test_json_payload(self, jobs_file, capsys):
        assert main(["batch", jobs_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jobs = {j["job_id"]: j for j in payload["jobs"]}
        assert set(jobs) == {"first", "again", "other"}
        assert all(j["status"] == "ok" for j in jobs.values())
        assert jobs["first"]["cache_hit"] is False
        assert jobs["again"]["cache_hit"] is True
        assert jobs["again"]["model_time_s"] == 0.0
        assert jobs["first"]["clique_number"] == 7
        assert jobs["first"]["stage_model_times_s"]  # per-stage breakdown
        assert payload["summary"]["cache_hits"] == 1
        assert payload["summary"]["ok"] == 3
        assert len(payload["devices"]) == 1

    def test_output_file(self, jobs_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["batch", jobs_file, "--output", str(report)]) == 0
        capsys.readouterr()
        assert json.loads(report.read_text())["summary"]["total"] == 3

    def test_devices_and_policy(self, jobs_file, capsys):
        assert main(["batch", jobs_file, "--devices", "2", "--policy", "sef"]) == 0
        assert "2 device(s)" in capsys.readouterr().out

    def test_cache_disabled(self, jobs_file, capsys):
        assert main(["batch", jobs_file, "--cache-size", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["cache_hits"] == 0

    def test_bad_jobs_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"graph": "g", "confg": {}}]))
        assert main(["batch", str(path)]) == 2
        assert "confg" in capsys.readouterr().out
        path.write_text(json.dumps([{"graph": "road-grid-60", "timeout_s": 0}]))
        assert main(["batch", str(path)]) == 2
        assert "timeout_s" in capsys.readouterr().out
        path.write_text(json.dumps([{"graph": "road-grid-60", "priority": "soon"}]))
        assert main(["batch", str(path)]) == 2
        assert "'priority' must be an integer" in capsys.readouterr().out
        path.write_text('[{"graph": "road-grid-60", "priority": %s}]' % ("9" * 5000))
        assert main(["batch", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().out

    def test_bad_fault_plan_exits_2(self, jobs_file, tmp_path, capsys):
        path = tmp_path / "plan.json"
        for data in (
            b'{"seed": null}',
            b'{"seed": 0, "events": ["ab"]}',
            b'{"seed": 0, "rates": {"devices": "x"}}',
            b'{"seed": 0, "rates": {"horizon": 1e30, "transient_kernel": 0.1}}',
            b"\xff\xfe",
        ):
            path.write_bytes(data)
            assert main(["batch", jobs_file, "--fault-plan", str(path)]) == 2
            assert capsys.readouterr().out.startswith(f"error: {path}")

    @pytest.mark.parametrize("timeout", ["0", "-1", "inf"])
    def test_bad_timeout_is_a_usage_error(self, jobs_file, timeout, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["batch", jobs_file, "--timeout", timeout])
        assert exc_info.value.code == 2
        assert "--timeout" in capsys.readouterr().err

    def test_missing_jobs_file_exits_2(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_failed_job_exits_1(self, tmp_path, graph_file, capsys):
        # an impossible per-job timeout on an un-shortcut config fails
        # that job; the batch reports it and exits 1
        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                [
                    {"id": "doomed", "graph": "soc-comm-10x50",
                     "config": {"heuristic": "none"}},
                    # explicit per-job budget overrides the batch default
                    {"id": "fine", "graph": graph_file, "timeout_s": 60},
                ]
            )
        )
        code = main(["batch", str(path), "--timeout", "1e-6",
                     "--max-attempts", "1", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        jobs = {j["job_id"]: j for j in payload["jobs"]}
        assert jobs["doomed"]["status"] == "failed"
        assert "SolveTimeoutError" in jobs["doomed"]["error"]

    def test_trace_export(self, jobs_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["batch", jobs_file, "--trace", str(trace)]) == 0
        capsys.readouterr()
        payload = json.loads(trace.read_text())
        assert payload["counters"]["service.cache.hits"] == 1
        names = {s["name"] for s in payload["spans"]}
        assert "service.job" in names


class TestSolveTimeout:
    def test_timeout_exit_code_3(self, capsys):
        code = main(
            ["solve", "soc-comm-10x50", "--heuristic", "none",
             "--timeout", "1e-6"]
        )
        assert code == 3
        assert "timeout" in capsys.readouterr().out

    def test_timeout_wins_over_time_limit(self, capsys):
        # --timeout takes precedence over --time-limit when both given
        code = main(
            ["solve", "soc-comm-10x50", "--heuristic", "none",
             "--time-limit", "60", "--timeout", "1e-6"]
        )
        assert code == 3
        capsys.readouterr()

    def test_no_timeout_still_solves(self, capsys):
        assert main(["solve", "soc-comm-10x50", "--max-report", "1"]) == 0
        assert "omega=" in capsys.readouterr().out
