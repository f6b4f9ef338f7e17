"""Golden output of every CLI path that prints a problem kind's answer.

Each kind's ``repro solve`` and ``repro client solve`` (against an
in-process server), in text and in ``--json``, on two suite graphs at
the default and at ``--max-report 2``, plus ``repro batch`` text and
``--json`` over one mixed-kind jobs file. Output must match
``tests/golden/cli_output.json`` byte for byte once the wall-clock
figures (``wall_time_s`` values, ``wall=...ms``) are masked.

After an intended output change, re-record the file with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.server import ServerConfig, ServerThread
from repro.service import SolveService

GOLDEN = Path(__file__).parent / "golden" / "cli_output.json"

KINDS = {
    "max-clique": [],
    "k-clique-count": ["--problem", "k-clique-count", "--k", "3"],
    "maximal-enum": ["--problem", "maximal-enum"],
}
GRAPHS = ["soc-comm-10x50", "road-grid-60"]
REPORTS = {"default": [], "report2": ["--max-report", "2"]}
MODES = {"text": [], "json": ["--json"]}

#: every kind on both graphs; the repeated job prints the cache tag
JOBS = {
    "jobs": [
        {"id": "mc-soc", "graph": "soc-comm-10x50"},
        {"id": "kc-soc", "graph": "soc-comm-10x50",
         "problem": "k-clique-count", "config": {"k": 3}},
        {"id": "me-soc", "graph": "soc-comm-10x50", "problem": "maximal-enum"},
        {"id": "mc-road", "graph": "road-grid-60",
         "config": {"max_cliques_report": 2}},
        {"id": "kc-road", "graph": "road-grid-60",
         "problem": "k-clique-count", "config": {"k": 3}},
        {"id": "me-road", "graph": "road-grid-60", "problem": "maximal-enum"},
        {"id": "mc-soc-again", "graph": "soc-comm-10x50"},
    ]
}


def _cases():
    cases = {}
    for command in ("solve", "client-solve"):
        for kind, kind_args in KINDS.items():
            for graph in GRAPHS:
                for report, report_args in REPORTS.items():
                    for mode, mode_args in MODES.items():
                        cases[f"{command}-{kind}-{graph}-{report}-{mode}"] = (
                            command,
                            [graph, *kind_args, *report_args, *mode_args],
                        )
    for mode, mode_args in MODES.items():
        cases[f"batch-{mode}"] = ("batch", mode_args)
    return cases


CASES = _cases()


def _mask(text):
    text = re.sub(r'"wall_time_s": [^,\n}]+', '"wall_time_s": "*"', text)
    return re.sub(r"wall=[0-9.]+ms", "wall=*ms", text)


def run_case(command, args, workdir):
    """Exit status and masked stdout of one case."""
    server = None
    if command == "solve":
        argv = ["solve", *args]
    elif command == "batch":
        jobs = Path(workdir) / "jobs.json"
        jobs.write_text(json.dumps(JOBS))
        argv = ["batch", str(jobs), *args]
    else:
        server = ServerThread(SolveService(), ServerConfig(port=0)).start()
        argv = ["client", "solve", *args, "--port", str(server.port)]
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        if server is not None:
            server.stop()
    return {"exit": code, "stdout": _mask(stdout.getvalue())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, golden, tmp_path):
    assert run_case(*CASES[case], tmp_path) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        recorded = {
            case: run_case(command, args, workdir)
            for case, (command, args) in sorted(CASES.items())
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    sys.stdout.write(f"recorded {len(recorded)} cases in {GOLDEN}\n")
