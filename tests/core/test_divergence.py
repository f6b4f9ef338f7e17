"""Divergence and cost-model behaviour of the solver kernels.

Checks that the paper's architectural claims are visible in the
simulated device's accounting: the expansion kernels diverge (ragged
sublist tails), high-degree graphs diverge more, and the latency
bound penalises tiny windows.
"""

from repro import Device, DeviceSpec, MaxCliqueSolver, SolverConfig
from repro.graph import generators as gen

MIB = 1 << 20


def solve_with_profile(graph, **config_kwargs):
    dev = Device(DeviceSpec(memory_bytes=512 * MIB))
    MaxCliqueSolver(graph, SolverConfig(**config_kwargs), dev).solve()
    return dev.kernel_breakdown()


class TestDivergence:
    def test_expansion_kernels_diverge(self):
        g = gen.caveman_social(5, 40, p_in=0.4, seed=1)
        prof = solve_with_profile(g)
        # ragged tails: later sublist positions have shorter loops
        assert prof["count_cliques"].divergence_waste > 0.2
        assert prof["output_new_cliques"].divergence_waste > 0.2

    def test_uniform_primitives_barely_diverge(self):
        g = gen.caveman_social(5, 40, p_in=0.4, seed=1)
        prof = solve_with_profile(g)
        assert prof["exclusive_scan"].divergence_waste < 0.1

    def test_divergence_is_ragged_tail_driven(self):
        # within a sublist, tails shrink from L-1 to 0, so lockstep
        # waste stays substantial on ANY graph shape -- the structural
        # reason the paper calls these accesses hard to balance
        for g in (
            gen.road_grid(60, 60, seed=2),
            gen.caveman_social(4, 60, p_in=0.45, seed=2),
        ):
            waste = solve_with_profile(g)["count_cliques"].divergence_waste
            assert 0.2 < waste < 0.95


class TestWindowLatencyCost:
    def test_smaller_windows_cost_more_model_time(self):
        g = gen.caveman_social(6, 50, p_in=0.4, seed=3)
        times = {}
        for window in (64, 1 << 20):
            dev = Device(DeviceSpec(memory_bytes=512 * MIB))
            r = MaxCliqueSolver(
                g, SolverConfig(window_size=window), dev
            ).solve()
            times[window] = r.model_time_s
        # paper Section V-C2: the smaller the window, the longer the runtime
        assert times[64] > times[1 << 20]

    def test_launch_counts_grow_with_window_count(self):
        g = gen.caveman_social(6, 50, p_in=0.4, seed=3)
        launches = {}
        for window in (64, 1 << 20):
            dev = Device(DeviceSpec(memory_bytes=512 * MIB))
            MaxCliqueSolver(g, SolverConfig(window_size=window), dev).solve()
            launches[window] = dev.stats().kernel_launches
        assert launches[64] > launches[1 << 20]
