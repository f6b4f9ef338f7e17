"""Hardware specifications for the simulated SIMT device and CPU baseline.

The paper ran on an NVIDIA Tesla A100 (40 GB) and a 24-core AMD EPYC
7402. We model both with coarse, *calibratable* specs expressed in one
shared currency: abstract scalar operations ("ops"). Every kernel
launch on the simulated device and every branch-and-bound step of the
CPU baseline charges ops to its spec's cost model, which converts them
to deterministic model time. This keeps cross-device comparisons
(Figure 4) meaningful and machine-independent.

The default device is a *proportionally scaled* A100: the surrogate
dataset suite is ~1000x smaller than the paper's Network Repository
datasets, so the device memory budget (40 GB -> tens of MiB), lane
count (scaled so the GPU:CPU throughput ratio at suite scale matches
the paper's at full scale), and launch overhead are scaled together.
This keeps both failure behaviour (OOM rates in Table I, Figure 6)
and cross-device speedup *shapes* (Figure 4) meaningful; absolute
times are model artifacts and are reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeviceSpec", "CPUSpec", "A100_LIKE", "EPYC_LIKE"]

#: bytes in one mebibyte, used for readable budget definitions
MIB = 1 << 20


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a simulated SIMT device.

    Parameters
    ----------
    name:
        Human-readable device name used in reports.
    lanes:
        Number of scalar lanes executing concurrently (SM count x
        warps resident x 32 on real hardware, collapsed into a single
        throughput figure here).
    warp_size:
        Threads per warp. Threads in a warp run in lockstep: a warp's
        cost is ``warp_size * max(thread cost in warp)``, charging the
        idle lanes that divergence wastes (Section II-C of the paper).
    clock_hz:
        Scalar ops each lane retires per second.
    launch_overhead_s:
        Fixed host-side cost of one kernel launch. This is what makes
        many tiny launches (small windows, Section V-C2) slow.
    memory_bytes:
        Device memory budget. Allocations past this raise
        :class:`repro.errors.DeviceOOMError`.
    """

    name: str = "sim-a100"
    lanes: int = 1024
    warp_size: int = 32
    clock_hz: float = 1.41e9
    launch_overhead_s: float = 1e-6
    memory_bytes: int = 192 * MIB

    def __post_init__(self) -> None:
        if self.warp_size <= 0:
            raise ValueError("warp_size must be positive")
        if self.lanes <= 0 or self.lanes % self.warp_size != 0:
            raise ValueError(
                f"lanes ({self.lanes}) must be a positive multiple of "
                f"warp_size ({self.warp_size})"
            )
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        if self.launch_overhead_s < 0:
            raise ValueError("launch_overhead_s must be non-negative")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")

    @property
    def ops_per_second(self) -> float:
        """Aggregate scalar throughput of the device."""
        return self.lanes * self.clock_hz


@dataclass(frozen=True)
class CPUSpec:
    """Static description of the simulated multi-core CPU baseline.

    Used by :mod:`repro.baselines.pmc` to convert counted
    branch-and-bound ops into deterministic model time comparable with
    the device model time.

    Parameters
    ----------
    name:
        Human-readable CPU name used in reports.
    cores:
        Physical cores available to the parallel search.
    clock_hz:
        Scalar ops one core retires per second. Higher than a GPU
        lane's: CPU cores are latency-optimised (Section II-C).
    parallel_efficiency:
        Fraction of linear scaling the fine-grained parallel DFS
        achieves; PMC reports near-linear but imperfect scaling.
    mem_penalty:
        Cycles charged per *irregular* memory access (pointer-chasing
        graph traversal misses caches). The simulated GPU pays no such
        penalty: with thousands of threads in flight it hides latency
        behind parallelism -- this asymmetry is the architectural
        premise of the paper (Section II-C) and is what the
        cross-device comparison (Figure 4) measures.
    """

    name: str = "sim-epyc"
    cores: int = 24
    clock_hz: float = 2.8e9
    parallel_efficiency: float = 0.7
    mem_penalty: float = 24.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        if not 0.0 < self.parallel_efficiency <= 1.0:
            raise ValueError("parallel_efficiency must be in (0, 1]")
        if self.mem_penalty < 1.0:
            raise ValueError("mem_penalty must be at least 1 cycle")

    def ops_per_second(self, threads: int) -> float:
        """Aggregate throughput when running with ``threads`` workers."""
        if threads <= 0:
            raise ValueError("threads must be positive")
        usable = min(threads, self.cores)
        if usable == 1:
            return self.clock_hz
        return usable * self.clock_hz * self.parallel_efficiency

    def time_for_ops(
        self, alu_ops: float, threads: int, mem_ops: float = 0.0
    ) -> float:
        """Model time for ``alu_ops`` register/word operations plus
        ``mem_ops`` irregular memory accesses."""
        cycles = float(alu_ops) + self.mem_penalty * float(mem_ops)
        return cycles / self.ops_per_second(threads)


#: Spec approximating the paper's A100, with a laptop-scale memory budget.
A100_LIKE = DeviceSpec()

#: Spec approximating the paper's 24-core EPYC 7402 host.
EPYC_LIKE = CPUSpec()
