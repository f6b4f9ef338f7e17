"""Unit tests for device/CPU hardware specs."""

import pytest

from repro.gpusim.spec import A100_LIKE, EPYC_LIKE, CPUSpec, DeviceSpec


class TestDeviceSpec:
    def test_defaults_valid(self):
        spec = DeviceSpec()
        assert spec.lanes % spec.warp_size == 0
        assert spec.ops_per_second == spec.lanes * spec.clock_hz

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lanes": 0},
            {"lanes": 100, "warp_size": 32},  # not a multiple
            {"warp_size": 0},
            {"clock_hz": 0.0},
            {"launch_overhead_s": -1e-6},
            {"memory_bytes": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeviceSpec(**kwargs)

    def test_module_constant_is_default(self):
        assert A100_LIKE == DeviceSpec()


class TestCPUSpec:
    def test_single_thread_full_clock(self):
        spec = CPUSpec()
        assert spec.ops_per_second(1) == spec.clock_hz

    def test_threads_capped_at_cores(self):
        spec = CPUSpec(cores=8)
        assert spec.ops_per_second(64) == spec.ops_per_second(8)

    def test_parallel_efficiency_applied(self):
        spec = CPUSpec(cores=4, parallel_efficiency=0.5)
        assert spec.ops_per_second(4) == pytest.approx(4 * spec.clock_hz * 0.5)

    def test_time_scales_with_ops_and_mem_penalty(self):
        spec = CPUSpec(mem_penalty=10.0)
        base = spec.time_for_ops(1000, 1)
        assert spec.time_for_ops(2000, 1) == pytest.approx(2 * base)
        assert spec.time_for_ops(0, 1, mem_ops=100) == pytest.approx(
            spec.time_for_ops(1000, 1)
        )

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            CPUSpec().ops_per_second(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cores": 0},
            {"clock_hz": -1.0},
            {"parallel_efficiency": 0.0},
            {"parallel_efficiency": 1.5},
            {"mem_penalty": 0.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CPUSpec(**kwargs)

    def test_epyc_constant(self):
        assert EPYC_LIKE.cores == 24
