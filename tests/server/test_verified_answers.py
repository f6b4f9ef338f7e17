"""Every answer path of every problem kind, checked against the graph.

Each config is solved by ``MaxCliqueSolver``, by a ``SolveService``
(serial, threaded, and a cache hit) and by ``local_solve_batch``, on
graphs of at most 60 vertices. Every result must pass
``verify_result(..., cross_check=True)`` and every path must give the
same answer; the wire reply to the same request must carry it too.
"""

import pytest

from repro.core import MaxCliqueSolver, SolverConfig
from repro.core.verify import verify_result
from repro.graph import from_edge_list
from repro.graph import generators as gen
from repro.service import SolveService
from repro.stream import local_solve_batch

GRAPHS = {
    "er-25": gen.erdos_renyi(25, 0.35, seed=1),
    "er-40": gen.erdos_renyi(40, 0.25, seed=2),
    "planted-60": gen.planted_clique(60, 6, avg_degree=4.0, seed=3),
    "caveman-36": gen.caveman_social(3, 12, p_in=0.5, seed=4),
    "isolated-vertices": from_edge_list([(0, 1), (1, 2), (0, 2), (3, 4)], 8),
    "edgeless": from_edge_list([], num_vertices=5),
}

#: the request configs, as ``solve`` frame ``config`` objects
CONFIGS = [
    {},
    {"window_size": 8},
    {"window_size": 8, "window_fanout": 2},
    {"problem": "k-clique-count", "k": 3},
    {"problem": "k-clique-count", "k": 2, "window_size": 8},
    {"problem": "maximal-enum"},
    {"problem": "maximal-enum", "max_cliques_report": 3},
]


def answer_of(result):
    """The answer ``repro solve --json`` prints, as plain values."""
    out = {}
    for attr, _ in result.answer.fields:
        value = getattr(result, attr)
        if attr == "cliques":
            value = [[int(v) for v in row] for row in value]
        elif attr == "heuristic":
            value = (value.kind, value.lower_bound)
        out[attr] = value
    return out


def carried(result, record):
    """The answer attributes a record dict carries, rows aside."""
    return {
        attr: record[field]
        for attr, field in result.answer.fields
        if field not in (None, "cliques")
    }


def checked(graph, result, want=None):
    """Verify ``result``; its answer must equal ``want`` when given."""
    verify_result(graph, result, cross_check=True)
    got = answer_of(result)
    assert want is None or got == want
    return got


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_every_path_gives_one_verified_answer(name, make_server, make_client):
    graph = GRAPHS[name]
    configs = [SolverConfig(**spec) for spec in CONFIGS]
    want = [checked(graph, MaxCliqueSolver(graph, c).solve()) for c in configs]

    serial = SolveService()
    threaded = SolveService(devices=2, executor="threaded", workers=2)
    for service in (serial, serial, threaded):
        for config in configs:
            service.submit_graph(graph, config)
    records = serial.run()
    fresh, hits = records[: len(configs)], records[len(configs):]
    assert not any(r.cache_hit for r in fresh) and all(r.cache_hit for r in hits)
    for batch in (fresh, hits, threaded.run()):
        for record, expected in zip(batch, want):
            assert record.ok and not record.degraded
            checked(graph, record.result, expected)
            fields = carried(record.result, record.to_dict())
            assert fields == {key: expected[key] for key in fields}

    solved = local_solve_batch([(graph, config) for config in configs])
    for result, expected in zip(solved, want):
        checked(graph, result, expected)

    client = make_client(make_server())
    for spec, result, expected in zip(CONFIGS, solved, want):
        reply = client.solve(graph, config=spec)
        fields = carried(result, reply["record"])
        assert fields == {key: expected[key] for key in fields}
        assert reply.get("cliques") == expected.get("cliques")
