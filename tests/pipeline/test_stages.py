"""Stage pipeline tests: ordering, context propagation, parity."""

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.solver import MaxCliqueSolver
from repro.graph import generators as gen
from repro.gpusim import Device, DeviceSpec
from repro.pipeline import (
    ExecutionContext,
    FullSearchStage,
    Stage,
    WindowedSearchStage,
    default_stages,
    run_pipeline,
)

MIB = 1 << 20


@pytest.fixture
def graph():
    return gen.planted_clique(300, 8, avg_degree=4.0, seed=7)


def fresh_device():
    return Device(DeviceSpec(memory_bytes=256 * MIB))


class TestStageOrdering:
    def test_default_stage_names_full(self):
        names = [s.name for s in default_stages(SolverConfig())]
        assert names == ["csr_upload", "preprocess", "heuristic", "setup", "bfs"]

    def test_default_stage_names_windowed(self):
        names = [s.name for s in default_stages(SolverConfig(window_size=64))]
        assert names == [
            "csr_upload", "preprocess", "heuristic", "setup", "windowed",
        ]

    def test_stages_satisfy_protocol(self):
        for stage in default_stages(SolverConfig()):
            assert isinstance(stage, Stage)
            assert isinstance(stage.name, str) and stage.name

    def test_stage_times_follow_execution_order(self, graph):
        result = MaxCliqueSolver(graph, SolverConfig(), fresh_device()).solve()
        assert list(result.stage_times) == [
            "csr_upload", "preprocess", "heuristic", "setup", "bfs",
        ]
        assert all(t >= 0.0 for t in result.stage_times.values())

    def test_stage_times_sum_to_model_time(self, graph):
        result = MaxCliqueSolver(graph, SolverConfig(), fresh_device()).solve()
        assert sum(result.stage_times.values()) == pytest.approx(
            result.model_time_s, rel=1e-12
        )

    def test_solver_stages_match_config(self, graph):
        solver = MaxCliqueSolver(graph, SolverConfig(window_size=32))
        assert isinstance(solver.stages()[-1], WindowedSearchStage)
        solver = MaxCliqueSolver(graph, SolverConfig())
        assert isinstance(solver.stages()[-1], FullSearchStage)


class TestContextPropagation:
    def run_manually(self, graph, config):
        """Drive run_pipeline directly so the context stays inspectable."""
        ctx = ExecutionContext.begin(graph, config, fresh_device())
        run_pipeline(default_stages(config), ctx)
        return ctx

    def test_stage_to_stage_state(self, graph):
        ctx = self.run_manually(graph, SolverConfig())
        assert ctx.ranks is not None
        assert ctx.heuristic is not None
        assert ctx.src is not None and ctx.dst is not None
        assert ctx.setup_stats is not None
        assert ctx.result is not None
        assert ctx.result.clique_number == 8

    def test_heuristic_seeds_omega_bar(self, graph):
        config = SolverConfig()
        ctx = ExecutionContext.begin(graph, config, fresh_device())
        stages = default_stages(config)
        run_pipeline(stages[:3], ctx)  # up to and including the heuristic
        assert ctx.omega_bar == max(ctx.heuristic.lower_bound, 2)

    def test_windowed_search_raises_omega_bar(self, graph):
        # a weak heuristic (none) leaves omega_bar at 2; the windowed
        # search must raise the carried bound to the true omega
        config = SolverConfig(heuristic="none", window_size=64)
        ctx = self.run_manually(graph, config)
        assert ctx.result.clique_number == 8
        assert ctx.omega_bar == 8

    def test_window_bounds_non_decreasing(self, graph):
        config = SolverConfig(heuristic="none", window_size=32)
        ctx = self.run_manually(graph, config)
        bounds = [w.best_clique_size for w in ctx.result.windows]
        assert bounds, "expected at least one window"
        assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] == ctx.result.clique_number

    def test_full_search_raises_omega_bar(self, graph):
        ctx = self.run_manually(graph, SolverConfig(heuristic="none"))
        assert ctx.omega_bar == ctx.result.clique_number == 8

    def test_cleanups_release_csr_buffers(self, graph):
        ctx = self.run_manually(graph, SolverConfig())
        # after run_pipeline the deferred frees have run: memory back
        # to the pre-solve baseline
        assert ctx.device.pool.in_use_bytes == ctx.base_mem
        assert not ctx._cleanups

    def test_rng_seeded_from_config(self, graph):
        a = ExecutionContext.begin(graph, SolverConfig(seed=5), fresh_device())
        b = ExecutionContext.begin(graph, SolverConfig(seed=5), fresh_device())
        assert a.rng.integers(1 << 30) == b.rng.integers(1 << 30)


class TestPipelineParity:
    """The staged solver is the solver: same results either way."""

    CONFIGS = [
        SolverConfig(),
        SolverConfig(window_size=64),
        SolverConfig(heuristic="multi-core"),
        SolverConfig(heuristic="none"),
    ]

    @pytest.mark.parametrize("idx", range(len(CONFIGS)))
    def test_manual_pipeline_matches_solver(self, graph, idx):
        config = self.CONFIGS[idx]
        via_solver = MaxCliqueSolver(graph, config, fresh_device()).solve()

        ctx = ExecutionContext.begin(graph, config, fresh_device())
        run_pipeline(default_stages(config), ctx)
        manual = ctx.result

        assert manual.clique_number == via_solver.clique_number
        assert manual.num_maximum_cliques == via_solver.num_maximum_cliques
        assert manual.model_time_s == via_solver.model_time_s
        assert np.array_equal(manual.cliques, via_solver.cliques)

    def test_custom_stage_list(self, graph):
        """Stages compose: extra observing stages slot in anywhere."""
        seen = []

        class Probe:
            name = "probe"

            def run(self, ctx):
                seen.append((ctx.omega_bar, ctx.src is not None))

        config = SolverConfig()
        stages = default_stages(config)
        stages.insert(4, Probe())  # between setup and search
        ctx = ExecutionContext.begin(graph, config, fresh_device())
        run_pipeline(stages, ctx)
        assert seen == [(ctx.heuristic.lower_bound, True)]
        assert ctx.result.clique_number == 8
        assert "probe" in ctx.stage_times
