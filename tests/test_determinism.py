"""Determinism guarantees: identical inputs produce identical outputs.

The reproduction's whole value rests on runs being bit-identical
across invocations and hosts: same datasets, same model times, same
counters. These tests re-run representative pipelines twice and
compare everything except wall time.
"""

import hashlib
import random

import pytest

from repro import Device, DeviceSpec, MaxCliqueSolver, SolverConfig
from repro.baselines import gpu_dfs_max_clique, pmc_max_clique
from repro.datasets.suite import SUITE, load
from repro.errors import DeviceOOMError
from repro.graph import from_edge_list
from repro.graph import generators as gen

MIB = 1 << 20


def solve_twice(graph, **cfg):
    outs = []
    for _ in range(2):
        dev = Device(DeviceSpec(memory_bytes=256 * MIB))
        outs.append(MaxCliqueSolver(graph, SolverConfig(**cfg), dev).solve())
    return outs


class TestSolverDeterminism:
    def test_full_bf_identical(self):
        g = gen.caveman_social(5, 40, p_in=0.4, seed=1)
        a, b = solve_twice(g)
        assert a.clique_number == b.clique_number
        assert a.num_maximum_cliques == b.num_maximum_cliques
        assert (a.cliques == b.cliques).all()
        assert a.model_time_s == b.model_time_s
        assert a.peak_memory_bytes == b.peak_memory_bytes
        assert a.candidates_stored == b.candidates_stored

    def test_windowed_identical(self):
        g = gen.erdos_renyi(40, 0.35, seed=2)
        a, b = solve_twice(g, window_size=16)
        assert (a.cliques == b.cliques).all()
        assert a.model_time_s == b.model_time_s
        assert [w.peak_bytes for w in a.windows] == [
            w.peak_bytes for w in b.windows
        ]

    def test_chunking_never_changes_model_time(self):
        # chunk_pairs is a host-side wall-time knob only
        g = gen.erdos_renyi(40, 0.35, seed=3)
        a = solve_twice(g, chunk_pairs=1 << 22)[0]
        b = solve_twice(g, chunk_pairs=37)[0]
        assert a.model_time_s == b.model_time_s
        assert (a.cliques == b.cliques).all()


class TestBaselineDeterminism:
    def test_pmc(self):
        g = gen.erdos_renyi(35, 0.4, seed=4)
        a = pmc_max_clique(g)
        b = pmc_max_clique(g)
        assert a.model_time_s == b.model_time_s
        assert (a.clique == b.clique).all()
        assert a.nodes_explored == b.nodes_explored

    def test_gpu_dfs(self):
        g = gen.erdos_renyi(35, 0.4, seed=5)
        a = gpu_dfs_max_clique(g)
        b = gpu_dfs_max_clique(g)
        assert a.model_time_s == b.model_time_s
        assert (a.subtree_costs == b.subtree_costs).all()


class TestDatasetDeterminism:
    def test_suite_builds_identically(self):
        spec = SUITE[10]
        a = spec.build()
        b = spec.build()
        assert (a.row_offsets == b.row_offsets).all()
        assert (a.col_indices == b.col_indices).all()


#: golden clique numbers for a representative slice of the suite --
#: recorded from the archived full regeneration; any change to these
#: is a behavioural regression, not noise
GOLDEN_OMEGA = {
    "road-grid-60": 4,
    "ca-team-1k": 9,
    "bio-cl-1k": 10,
    "bio-plant-3k": 12,
    "tech-cl-2k": 6,
    "web-rmat-10": 8,
    "soc-comm-10x50": 7,
}


class TestGoldenResults:
    @pytest.mark.parametrize("name,omega", sorted(GOLDEN_OMEGA.items()))
    def test_golden_clique_numbers(self, name, omega):
        g = load(name)
        dev = Device(DeviceSpec(memory_bytes=256 * MIB))
        r = MaxCliqueSolver(g, SolverConfig(), dev).solve()
        assert r.clique_number == omega
        assert pmc_max_clique(g).clique_number == omega


def _community_graph(num, size, p_in, seed, p_out_degree=2.0):
    """A caveman-style community graph drawn with Python's ``random``.

    Pure Python (no NumPy generator), so no NumPy version can change
    the graph the recorded statistics below were taken on.
    """
    rng = random.Random(seed)
    n = num * size
    edges = []
    for c in range(num):
        base = c * size
        for u in range(size):
            for v in range(u + 1, size):
                if rng.random() < p_in:
                    edges.append((base + u, base + v))
    for _ in range(int(p_out_degree * n / 2)):
        edges.append((rng.randrange(n), rng.randrange(n)))
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edge_list([(perm[u], perm[v]) for u, v in edges], num_vertices=n)


RECORDED_GRAPHS = {
    "dense": lambda: _community_graph(6, 40, 0.4, seed=1),
    "sparse": lambda: _community_graph(20, 25, 0.12, seed=2),
}

RECORDED_CONFIGS = {
    "full": {},
    "windowed-64": {"window_size": 64},
    "fanout-3": {"window_size": 64, "window_fanout": 3},
    "adaptive-32": {"window_size": 32, "adaptive_windowing": True},
    "kclique-4": {"problem": "k-clique-count", "k": 4},
    "kclique-4-fanout-3": {
        "problem": "k-clique-count", "k": 4, "window_size": 64, "window_fanout": 3,
    },
    "maximal": {"problem": "maximal-enum"},
    "maximal-windowed-64": {"problem": "maximal-enum", "window_size": 64},
    "maximal-adaptive-2048": {
        "problem": "maximal-enum", "window_size": 2048, "adaptive_windowing": True,
    },
}

#: device memory of the configs not run on the default 192 MiB device;
#: at 40,000 bytes the dense graph's maximal-enum windows run out of
#: memory partway down their levels and split
RECORDED_MEMORY = {"maximal-adaptive-2048": 40_000}

#: (graph, config) -> (answer, kernel launches, peak bytes, model
#: seconds) on a 192 MiB device (RECORDED_MEMORY names the others),
#: recorded before the search stages were folded into one call per
#: stage (the maximal-adaptive-2048 row with RECORDED_TRACES); every
#: value must survive any refactor of the solve path
RECORDED = {
    ("dense", "full"): ((6, 16), 65, 66296, 6.560044326241135e-05),
    ("dense", "windowed-64"): ((6, 1), 502, 19232, 0.0005082349290780131),
    ("dense", "fanout-3"): ((6, 1), 246, 20400, 0.000248710106382979),
    ("dense", "adaptive-32"): ((6, 1), 842, 19232, 0.000852729964539),
    ("dense", "kclique-4"): (2542, 16, 88872, 1.6440314716312058e-05),
    ("dense", "kclique-4-fanout-3"): (2542, 104, 19192, 0.0001061673980496454),
    ("dense", "maximal"): ((1767, 6), 32, 92576, 3.254029255319149e-05),
    ("dense", "maximal-windowed-64"): ((1767, 6), 704, 19208, 0.0007110737810283654),
    ("dense", "maximal-adaptive-2048"): ((1767, 6), 135, 21008, 0.00013654514627659572),
    ("sparse", "full"): ((3, 108), 33, 34672, 3.3153280141843966e-05),
    ("sparse", "windowed-64"): ((3, 1), 159, 13936, 0.00015963663563829797),
    ("sparse", "fanout-3"): ((3, 1), 82, 13936, 8.232741578014184e-05),
    ("sparse", "adaptive-32"): ((3, 1), 281, 14056, 0.0002820742242907803),
    ("sparse", "kclique-4"): (0, 15, 24520, 1.5072273936170211e-05),
    ("sparse", "kclique-4-fanout-3"): (0, 64, 14568, 6.426128102836882e-05),
    ("sparse", "maximal"): ((1057, 3), 17, 24520, 1.7075997340425532e-05),
    ("sparse", "maximal-windowed-64"): ((1057, 3), 188, 14040, 0.00018865986258865254),
}


#: (graph, config) -> (levels, candidates stored, digest of the level
#: stats, digest of the kernel-event sequence), recorded on the same
#: devices before the engine's two level loops and two window sweeps
#: were folded into one each. A window that runs out of memory and
#: splits must leave no levels behind, and fault plans address
#: launches by ordinal, so the order of every launch is pinned, not
#: just the totals.
RECORDED_TRACES = {
    ("dense", "full"): (5, 4538, "ef88e5ce2d8882c2", "f44727126dacaa60"),
    ("dense", "windowed-64"): (122, 4538, "d55f28a168d8d07b", "a539a099828841e7"),
    ("dense", "fanout-3"): (122, 4538, "294211f43076e139", "372bdbf6258223c1"),
    ("dense", "adaptive-32"): (215, 4538, "b687f7d38e6382ca", "a5423f6d442e7b38"),
    ("dense", "kclique-4"): (3, 8754, "74f20d4f3c09bd34", "df82e4fe17f2a121"),
    ("dense", "kclique-4-fanout-3"): (102, 8754, "48c433e3498ab12e", "71366d88a4272113"),
    ("dense", "maximal"): (5, 9217, "be430293e1f8892a", "3d0a7c700de07cf3"),
    ("dense", "maximal-windowed-64"): (146, 9217, "a265a313cd219403", "14201e11f28e9e8b"),
    ("dense", "maximal-adaptive-2048"): (24, 9217, "999a819b756212ee", "8920a36b9698cbd1"),
    ("sparse", "full"): (2, 1268, "27ab2a18dec65741", "0055bc3d6b2ed08e"),
    ("sparse", "windowed-64"): (38, 1268, "7d9678e86ba32e8e", "14c64415b2c9ede2"),
    ("sparse", "fanout-3"): (38, 1268, "e96eb177f0b087a4", "9722e2bca257667d"),
    ("sparse", "adaptive-32"): (73, 1268, "14966968a2543244", "a8f4461e279303b4"),
    ("sparse", "kclique-4"): (2, 1336, "8c4d7b2d9982d3b2", "5405086fc8d21518"),
    ("sparse", "kclique-4-fanout-3"): (40, 1336, "599e13b61d59ae7f", "1ab5981632e90ab7"),
    ("sparse", "maximal"): (2, 1336, "8c4d7b2d9982d3b2", "304e9fb652ec6b65"),
    ("sparse", "maximal-windowed-64"): (40, 1336, "513f955eb9a787fe", "0590ede89785a74d"),
}


def _digest(rows) -> str:
    text = "\n".join(" ".join(str(x) for x in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _record_kernels(device):
    """Collect (name, threads, useful ops) of every charged launch."""
    events = []

    def hook(name, threads, useful_ops, **_):
        events.append((name, threads, round(useful_ops)))

    device.set_trace_hook(hook)
    return events


def _answer(result):
    if hasattr(result, "clique_number"):
        return (result.clique_number, result.num_maximum_cliques)
    if hasattr(result, "k"):
        return result.count
    return (result.num_maximal_cliques, result.max_clique_size)


class TestRecordedStatistics:
    """Simulated statistics pinned to recorded values.

    The parity suites compare two runs of the same code, so a change
    that moves model time identically on both sides passes them; these
    values were recorded once and catch that.
    """

    @pytest.fixture(scope="class")
    def graphs(self):
        return {name: build() for name, build in RECORDED_GRAPHS.items()}

    @pytest.mark.parametrize("graph_name,config_name", sorted(RECORDED))
    def test_solve_matches_recording(self, graphs, graph_name, config_name):
        answer, launches, peak, model_time = RECORDED[graph_name, config_name]
        num_levels, stored, level_digest, kernel_digest = RECORDED_TRACES[
            graph_name, config_name
        ]
        memory = RECORDED_MEMORY.get(config_name, 192 * MIB)
        device = Device(DeviceSpec(memory_bytes=memory))
        kernels = _record_kernels(device)
        config = SolverConfig(**RECORDED_CONFIGS[config_name])
        result = MaxCliqueSolver(graphs[graph_name], config, device).solve()
        assert _answer(result) == answer
        assert result.device_stats.kernel_launches == launches
        assert result.peak_memory_bytes == peak
        assert result.model_time_s == pytest.approx(model_time, rel=1e-12)
        levels = [(s.level, s.candidates, s.generated, s.pruned) for s in result.levels]
        assert len(levels) == num_levels
        assert result.candidates_stored == stored
        assert sum(s.candidates for s in result.levels) == stored
        assert _digest(levels) == level_digest
        assert _digest(kernels) == kernel_digest

    def test_out_of_memory_matches_recording(self, graphs):
        # a 64 KiB device holds the CSR and the 2-clique list but runs
        # out partway through the maximal-enum levels
        device = Device(DeviceSpec(memory_bytes=64 * 1024))
        kernels = _record_kernels(device)
        config = SolverConfig(problem="maximal-enum")
        with pytest.raises(DeviceOOMError):
            MaxCliqueSolver(graphs["dense"], config, device).solve()
        assert device.stats().kernel_launches == 12
        assert _digest(kernels) == "42c5d87809c0b621"
        assert device.model_time_s == pytest.approx(
            1.2173714539007092e-05, rel=1e-12
        )
