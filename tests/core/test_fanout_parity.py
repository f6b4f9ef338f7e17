"""Fanout=1 parity: the concurrent sweep degenerates to the sequential one.

Since the engine refactor both ``windowed_search`` and
``concurrent_windowed_search`` configure
:func:`repro.engine.sweep.window_sweep`; at ``fanout=1`` the
concurrent entry point must be *indistinguishable* from the
sequential one -- same ω, same witness clique, same per-window stats,
same level stats, and the same device charges -- because it routes
through the identical sequential sweep, isolated launch schedule and
all. Checked across the dataset suite plus targeted generator shapes.
"""

import numpy as np
import pytest

from repro import Device, DeviceSpec, MaxCliqueSolver, SolverConfig
from repro.core.concurrent import concurrent_windowed_search
from repro.core.config import Heuristic
from repro.core.heuristics import run_heuristic
from repro.core.setup import build_two_clique_list
from repro.core.windowed import windowed_search
from repro.datasets import iter_suite
from repro.graph import generators as gen
from tests.test_determinism import RECORDED_GRAPHS

MIB = 1 << 20

# the smallest suite member of each category: parity across every shape
_PICKS = (
    "road-grid-60",
    "ca-team-1k",
    "bio-cl-1k",
    "tech-cl-2k",
    "web-rmat-10",
    "soc-comm-10x50",
)
SUITE_GRAPHS = [
    (spec.name, graph)
    for spec, graph in iter_suite(max_edges=10_000)
    if spec.name in _PICKS
]

GENERATOR_GRAPHS = [
    ("caveman", gen.caveman_social(5, 30, p_in=0.4, seed=2)),
    ("planted", gen.planted_clique(300, 8, avg_degree=4.0, seed=7)),
    ("er-dense", gen.erdos_renyi(60, 0.4, seed=5)),
]


def _run_pair(graph, window_size, **kwargs):
    """One sequential and one fanout=1 concurrent sweep, fresh devices."""
    outs, devices = [], []
    for entry in (windowed_search, concurrent_windowed_search):
        device = Device(DeviceSpec(memory_bytes=256 * MIB))
        heur = run_heuristic(graph, Heuristic.MULTI_DEGREE, device, h=8)
        omega_bar = max(heur.lower_bound, 2)
        src, dst, _ = build_two_clique_list(graph, omega_bar, device)
        if entry is concurrent_windowed_search:
            out = entry(
                graph, src, dst, omega_bar, heur.clique, device,
                window_size=window_size, fanout=1, **kwargs,
            )
        else:
            out = entry(
                graph, src, dst, omega_bar, heur.clique, device,
                window_size=window_size, **kwargs,
            )
        outs.append(out)
        devices.append(device)
    return outs, devices


def _window_sig(w):
    return (w.index, w.start, w.end, w.peak_bytes, w.best_clique_size, w.levels)


def _level_sig(s):
    return (s.level, s.candidates, s.generated, s.pruned)


def assert_parity(graph, window_size, **kwargs):
    (seq, con), (dev_seq, dev_con) = _run_pair(graph, window_size, **kwargs)
    assert con.omega == seq.omega
    assert np.array_equal(np.sort(con.best_clique), np.sort(seq.best_clique))
    assert [_window_sig(w) for w in con.windows] == [
        _window_sig(w) for w in seq.windows
    ]
    assert [_level_sig(s) for s in con.levels] == [
        _level_sig(s) for s in seq.levels
    ]
    assert con.candidates_stored == seq.candidates_stored
    assert con.candidates_pruned == seq.candidates_pruned
    assert con.peak_window_bytes == seq.peak_window_bytes
    # identical launch schedule: the devices were charged identically
    assert dev_con.model_time_s == dev_seq.model_time_s
    assert dev_con.stats().kernel_launches == dev_seq.stats().kernel_launches


class TestFanoutOneParity:
    @pytest.mark.parametrize(
        "name,graph", SUITE_GRAPHS, ids=[n for n, _ in SUITE_GRAPHS]
    )
    def test_suite_graphs(self, name, graph):
        assert_parity(graph, window_size=128)

    @pytest.mark.parametrize(
        "name,graph", GENERATOR_GRAPHS, ids=[n for n, _ in GENERATOR_GRAPHS]
    )
    def test_generator_graphs(self, name, graph):
        assert_parity(graph, window_size=64)

    def test_tiny_windows(self):
        assert_parity(gen.erdos_renyi(40, 0.3, seed=9), window_size=4)

    def test_auto_window_size(self):
        assert_parity(gen.caveman_social(4, 25, p_in=0.4, seed=1), "auto")

    def test_degree_window_order(self):
        from repro.core.config import WindowOrder

        assert_parity(
            gen.erdos_renyi(50, 0.35, seed=3),
            window_size=32,
            window_order=WindowOrder.DESC_DEGREE,
        )


class TestFusedWindowStats:
    def test_fused_windows_report_the_best_clique_found(self):
        # omega_floor 8 sits above omega (6) of the recorded dense graph:
        # no window finds a clique, so each reports the heuristic's 6,
        # never the group's pruning bound of 8
        graph = RECORDED_GRAPHS["dense"]()

        def window_sizes(fanout):
            config = SolverConfig(window_size=64, window_fanout=fanout, omega_floor=8)
            device = Device(DeviceSpec(memory_bytes=192 * MIB))
            result = MaxCliqueSolver(graph, config, device).solve()
            assert result.clique_number == 6
            return [w.best_clique_size for w in result.windows]

        isolated = window_sizes(1)
        assert len(isolated) == 29 and set(isolated) == {6}
        assert window_sizes(3) == isolated
