"""The simulated SIMT device: allocation, kernel accounting, model clock.

A :class:`Device` is the substrate every GPU-side algorithm in this
repo runs on. It provides

* **memory** -- :meth:`Device.alloc` / :meth:`Device.from_host` return
  :class:`~repro.gpusim.memory.DeviceArray` objects charged against the
  spec's budget, so breadth-first candidate explosions hit a real OOM
  wall just as they do on a 40 GB card;
* **kernel accounting** -- :meth:`Device.launch` charges a kernel's
  per-thread op costs using the warp-lockstep model (a warp costs
  ``warp_size * max(member costs)``), and advances a deterministic
  model clock ``time = overhead + max(throughput-bound, latency-bound)``;
* **statistics** -- :meth:`Device.stats` snapshots launches, threads,
  effective/useful ops, model time, and memory peaks for the
  experiment harness.

The latency bound is what reproduces the paper's windowing result:
launches with too few threads to fill the device are bounded by their
longest warp's serial time plus launch overhead, so many small
launches (small windows) run slower than one big launch even at equal
total work (Section V-C2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

import numpy as np

from ..errors import DeviceLostError
from .memory import DeviceArray, MemoryPool
from .spec import DeviceSpec

__all__ = ["Device", "DeviceStats", "KernelProfile"]


@dataclass
class KernelProfile:
    """Aggregated accounting for one kernel name.

    The device groups launches by the ``name`` passed to
    :meth:`Device.launch`; a profile is the per-name analogue of
    :class:`DeviceStats`, used to attribute model time to pipeline
    phases (heuristic vs count vs output vs primitives) the way
    ``nvprof`` output would on real hardware.
    """

    name: str
    launches: int = 0
    threads: int = 0
    useful_ops: float = 0.0
    effective_ops: float = 0.0
    model_time_s: float = 0.0

    @property
    def divergence_waste(self) -> float:
        if self.effective_ops <= 0:
            return 0.0
        return 1.0 - self.useful_ops / self.effective_ops


@dataclass(frozen=True)
class DeviceStats:
    """Immutable snapshot of device counters.

    Attributes
    ----------
    kernel_launches:
        Number of kernels launched since the last reset.
    threads_launched:
        Total threads across all launches.
    useful_ops:
        Sum of per-thread costs (work actually requested).
    effective_ops:
        Ops charged after warp-lockstep rounding; ``effective_ops -
        useful_ops`` is the work wasted to divergence.
    model_time_s:
        Deterministic model time accumulated by the cost model.
    mem_in_use_bytes / mem_peak_bytes:
        Current and high-water device memory.
    """

    kernel_launches: int
    threads_launched: int
    useful_ops: float
    effective_ops: float
    model_time_s: float
    mem_in_use_bytes: int
    mem_peak_bytes: int

    @property
    def divergence_waste(self) -> float:
        """Fraction of charged ops wasted to warp divergence."""
        if self.effective_ops <= 0:
            return 0.0
        return 1.0 - self.useful_ops / self.effective_ops


class Device:
    """A simulated SIMT accelerator.

    Parameters
    ----------
    spec:
        Hardware description; defaults to the scaled-down A100-like
        spec used throughout the evaluation.

    Notes
    -----
    A device holds *cumulative* state: counters, the per-kernel-name
    breakdown, the model clock, and the memory peak all accumulate for
    the device's lifetime. A device **shared across solves** therefore
    accumulates statistics across them (``model_time_s`` keeps
    growing; ``kernel_breakdown()`` merges every solve's launches) --
    which is exactly what multi-solve experiments want. Solvers report
    per-solve figures by snapshotting the clock before and after, not
    by resetting. Call :meth:`reset_counters` between solves to start
    accounting fresh; live allocations survive a reset.
    """

    def __init__(self, spec: Optional[DeviceSpec] = None) -> None:
        self.spec = spec if spec is not None else DeviceSpec()
        self.pool = MemoryPool(self.spec.memory_bytes)
        self._launches = 0
        self._threads = 0
        self._useful_ops = 0.0
        self._effective_ops = 0.0
        self._time_s = 0.0
        self._profiles: Dict[str, KernelProfile] = {}
        self._trace_hook: Optional[Callable[..., None]] = None
        self._fault_injector = None  # Optional[repro.gpusim.faults.FaultInjector]
        self._lost = False

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def set_fault_injector(self, injector) -> None:
        """Install a :class:`~repro.gpusim.faults.FaultInjector` (or None).

        With no injector installed (the default) launch and alloc paths
        perform exactly the charges they perform today -- fault support
        is zero-overhead when unused.
        """
        self._fault_injector = injector

    @property
    def fault_injector(self):
        return self._fault_injector

    @property
    def lost(self) -> bool:
        """True once the device has fallen off the bus (injected loss)."""
        return self._lost

    def mark_lost(self) -> None:
        """Drop the device off the bus: all further work raises."""
        self._lost = True

    def _check_usable(self) -> None:
        if self._lost:
            raise DeviceLostError("device lost (all operations fail)")

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def alloc(
        self,
        shape: Union[int, tuple],
        dtype: Union[str, np.dtype] = np.int32,
        label: str = "",
        fill: Optional[int] = None,
    ) -> DeviceArray:
        """Allocate a device array, optionally filled with a constant."""
        if self._lost:
            self._check_usable()
        if self._fault_injector is not None:
            self._fault_injector.on_alloc(self)
        if fill is None:
            arr = np.empty(shape, dtype=dtype)
        else:
            arr = np.full(shape, fill, dtype=dtype)
        return DeviceArray(arr, self.pool, label=label)

    def from_host(self, array: np.ndarray, label: str = "") -> DeviceArray:
        """Copy a host array onto the device (always a fresh buffer)."""
        if self._lost:
            self._check_usable()
        if self._fault_injector is not None:
            self._fault_injector.on_alloc(self)
        return DeviceArray(
            np.array(array, order="C", copy=True), self.pool, label=label
        )

    # ------------------------------------------------------------------
    # kernel accounting
    # ------------------------------------------------------------------
    def launch(
        self,
        thread_costs: Union[np.ndarray, int, float, None] = None,
        n_threads: Optional[int] = None,
        name: str = "",
    ) -> float:
        """Charge one kernel launch and return its model time.

        Parameters
        ----------
        thread_costs:
            Per-thread op counts (array), or a uniform per-thread cost
            (scalar, requires ``n_threads``). ``None`` with
            ``n_threads`` charges 1 op per thread.
        n_threads:
            Thread count when ``thread_costs`` is scalar or ``None``.
        name:
            Kernel name for debugging; not used by the cost model.
        """
        spec = self.spec
        if isinstance(thread_costs, np.ndarray):
            costs = thread_costs
            n = costs.size
            if n == 0:
                return 0.0  # nothing to launch
            useful = float(costs.sum(dtype=np.float64))
            warp_max = self._warp_max(costs)
            effective = float(warp_max.sum(dtype=np.float64)) * spec.warp_size
            critical = float(warp_max.max())
        else:
            if n_threads is None:
                raise ValueError("n_threads is required for scalar thread_costs")
            n = int(n_threads)
            if n == 0:
                return 0.0  # nothing to launch
            per = 1.0 if thread_costs is None else float(thread_costs)
            useful = per * n
            # uniform costs: lockstep waste only from the ragged last warp
            full_threads = -(-n // spec.warp_size) * spec.warp_size
            effective = per * full_threads
            critical = per
        return self._charge(n, useful, effective, critical, name)

    def _warp_max(self, costs: np.ndarray) -> np.ndarray:
        """Max thread cost per warp of consecutive threads."""
        w = self.spec.warp_size
        n = costs.size
        pad = (-n) % w
        if pad:
            costs = np.concatenate([costs, np.zeros(pad, dtype=costs.dtype)])
        return costs.reshape(-1, w).max(axis=1)

    def _charge(
        self, n: int, useful: float, effective: float, critical: float,
        name: str = "",
    ) -> float:
        # Fault hooks live here -- only *charged* launches advance the
        # injector's launch ordinal, so ordinals line up exactly with
        # the tracer's kernel-event indices.
        if self._lost:
            self._check_usable()
        if self._fault_injector is not None:
            self._fault_injector.on_launch(self)
        spec = self.spec
        throughput_bound = effective / spec.ops_per_second
        latency_bound = critical / spec.clock_hz
        t = spec.launch_overhead_s + max(throughput_bound, latency_bound)
        self._launches += 1
        self._threads += n
        self._useful_ops += useful
        self._effective_ops += effective
        self._time_s += t
        prof = self._profiles.get(name)
        if prof is None:
            prof = self._profiles[name] = KernelProfile(name=name)
        prof.launches += 1
        prof.threads += n
        prof.useful_ops += useful
        prof.effective_ops += effective
        prof.model_time_s += t
        if self._trace_hook is not None:
            self._trace_hook(
                name=name,
                threads=n,
                useful_ops=useful,
                effective_ops=effective,
                model_time_s=t,
                end_model_s=self._time_s,
            )
        return t

    def set_trace_hook(
        self, hook: Optional[Callable[..., None]]
    ) -> Optional[Callable[..., None]]:
        """Install a per-kernel-charge callback; returns the previous one.

        The hook is invoked once per charged launch (empty launches
        charge nothing and emit nothing) with keyword arguments
        ``name``, ``threads``, ``useful_ops``, ``effective_ops``,
        ``model_time_s``, and ``end_model_s``. It observes accounting
        only -- it cannot alter charges, so tracing never changes model
        time. Pass ``None`` to uninstall. Pipeline runners install a
        tracer's ``on_kernel`` here for the duration of a solve and
        restore the previous hook afterwards.
        """
        prev = self._trace_hook
        self._trace_hook = hook
        return prev

    def charge_time(self, seconds: float) -> None:
        """Advance the model clock directly (host-side serial steps)."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self._time_s += seconds

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> DeviceStats:
        """Snapshot current counters."""
        return DeviceStats(
            kernel_launches=self._launches,
            threads_launched=self._threads,
            useful_ops=self._useful_ops,
            effective_ops=self._effective_ops,
            model_time_s=self._time_s,
            mem_in_use_bytes=self.pool.in_use_bytes,
            mem_peak_bytes=self.pool.peak_bytes,
        )

    @property
    def model_time_s(self) -> float:
        """Deterministic model time accumulated so far."""
        return self._time_s

    def kernel_breakdown(self) -> Dict[str, KernelProfile]:
        """Per-kernel-name profiles, like an ``nvprof`` summary.

        Returns a fresh dict ordered by descending model time.
        """
        return {
            p.name: p
            for p in sorted(
                self._profiles.values(),
                key=lambda p: p.model_time_s,
                reverse=True,
            )
        }

    def reset_counters(self) -> None:
        """Zero launch/op/time counters and the memory peak.

        Also clears the per-kernel-name breakdown
        (:meth:`kernel_breakdown` returns ``{}`` afterwards) and
        restarts the model clock from zero. Live allocations are
        unaffected; the peak restarts from the current in-use figure.
        Any installed trace hook stays installed.
        """
        self._launches = 0
        self._threads = 0
        self._useful_ops = 0.0
        self._effective_ops = 0.0
        self._time_s = 0.0
        self._profiles.clear()
        self.pool.reset_peak()
