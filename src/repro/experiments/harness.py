"""Experiment harness: run (dataset x config) matrices and collect rows.

Mirrors the paper's methodology (Section V):

* a fixed evaluation device spec whose memory budget is scaled down
  with the dataset suite (40 GB -> 32 MiB);
* every run is classified ``ok`` / ``oom`` / ``timeout``;
* "fastest configuration" per dataset is found by sweeping the
  heuristics (and optionally window sizes) and keeping the fastest
  non-failing run, exactly how the paper reports its headline numbers;
* ground-truth ω comes from the PMC baseline (exact, not memory
  bounded), which also provides the Figure 4 comparison times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.config import Heuristic, SolverConfig
from ..core.solver import MaxCliqueSolver
from ..baselines.pmc import PMCResult, pmc_max_clique
from ..datasets.suite import DatasetSpec
from ..errors import DeviceOOMError, SolveTimeoutError
from ..gpusim.device import Device
from ..gpusim.spec import DeviceSpec

__all__ = [
    "EVAL_SPEC",
    "RunRecord",
    "run_config",
    "sweep_heuristics",
    "best_run",
    "pmc_reference",
    "HeuristicProbe",
    "heuristic_probe",
    "HEURISTICS",
]

MIB = 1 << 20

#: Evaluation device: A100-like throughput with the budget scaled down
#: in proportion to the surrogate suite (40 GB -> 32 MiB).
EVAL_SPEC = DeviceSpec(name="sim-a100-eval", memory_bytes=32 * MIB)

#: Heuristic order from simplest to most complex (paper Table II).
HEURISTICS: Tuple[Heuristic, ...] = (
    Heuristic.NONE,
    Heuristic.SINGLE_DEGREE,
    Heuristic.SINGLE_CORE,
    Heuristic.MULTI_DEGREE,
    Heuristic.MULTI_CORE,
)


@dataclass
class RunRecord:
    """One solver run on one dataset."""

    dataset: str
    category: str
    num_vertices: int
    num_edges: int
    avg_degree: float
    config_label: str
    outcome: str  # "ok" | "oom" | "timeout"
    omega: int = 0
    num_max_cliques: int = 0
    lower_bound: int = 0
    heuristic_model_time_s: float = 0.0
    model_time_s: float = float("inf")
    wall_time_s: float = 0.0
    peak_memory_bytes: int = 0
    search_memory_bytes: int = 0
    pruned_fraction: float = 0.0
    windows: int = 0
    #: model seconds per pipeline stage (csr_upload/preprocess/...)
    stage_model_times: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    @property
    def throughput_eps(self) -> float:
        """Edges per second of model time (paper Figures 2-3)."""
        if not self.ok or self.model_time_s <= 0:
            return 0.0
        return self.num_edges / self.model_time_s


def _label(config: SolverConfig) -> str:
    parts = [config.heuristic.value]
    if config.windowed:
        parts.append(f"win={config.window_size}:{config.window_order.value}")
    return "+".join(parts)


def run_config(
    spec: DatasetSpec,
    graph,
    config: SolverConfig,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: Optional[float] = 120.0,
) -> RunRecord:
    """Run one configuration, classifying OOM/timeout outcomes.

    The timeout is a host wall-time guard (the paper's evaluation
    similarly abandons pathological runs); model time is unaffected.
    """
    record = RunRecord(
        dataset=spec.name,
        category=spec.category,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=graph.average_degree,
        config_label=_label(config),
        outcome="ok",
    )
    if timeout_s is not None and config.time_limit_s is None:
        config.time_limit_s = timeout_s
    device = Device(device_spec)
    solver = MaxCliqueSolver(graph, config, device)
    t0 = time.perf_counter()
    try:
        result = solver.solve()
    except DeviceOOMError:
        record.outcome = "oom"
        record.wall_time_s = time.perf_counter() - t0
        record.peak_memory_bytes = device.pool.peak_bytes
        return record
    except SolveTimeoutError:
        record.outcome = "timeout"
        record.wall_time_s = time.perf_counter() - t0
        return record
    record.wall_time_s = result.wall_time_s
    record.omega = result.clique_number
    record.num_max_cliques = result.num_maximum_cliques
    record.lower_bound = result.heuristic.lower_bound
    record.heuristic_model_time_s = result.heuristic.model_time_s
    record.model_time_s = result.model_time_s
    record.peak_memory_bytes = result.peak_memory_bytes
    record.search_memory_bytes = result.search_memory_bytes
    record.pruned_fraction = result.pruned_fraction
    record.windows = len(result.windows)
    record.stage_model_times = dict(result.stage_times)
    return record


def sweep_heuristics(
    spec: DatasetSpec,
    graph,
    heuristics: Sequence[Heuristic] = HEURISTICS,
    window_size: Union[None, int, str] = None,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: Optional[float] = 120.0,
) -> List[RunRecord]:
    """Run every heuristic variant on one dataset."""
    out = []
    for h in heuristics:
        config = SolverConfig(heuristic=h, window_size=window_size)
        out.append(run_config(spec, graph, config, device_spec, timeout_s))
    return out


def best_run(records: Iterable[RunRecord]) -> Optional[RunRecord]:
    """Fastest successful run (the paper's per-dataset reporting rule)."""
    ok = [r for r in records if r.ok]
    if not ok:
        return None
    return min(ok, key=lambda r: r.model_time_s)


@lru_cache(maxsize=None)
def _pmc_cached(name: str) -> PMCResult:
    from ..datasets.suite import load

    return pmc_max_clique(load(name))


def pmc_reference(spec: DatasetSpec) -> PMCResult:
    """Exact PMC run for a suite dataset (memoised): ground-truth ω
    and the Figure 4 comparison time."""
    return _pmc_cached(spec.name)


@dataclass
class HeuristicProbe:
    """Heuristic-phase-only measurement (always completes, even when
    the exact search would OOM) -- feeds Table I accuracy and the
    Figure 5 series."""

    dataset: str
    kind: str
    lower_bound: int
    model_time_s: float
    wall_time_s: float
    setup_pruned_fraction: float


def heuristic_probe(
    spec: DatasetSpec,
    graph,
    kind: Heuristic,
    device_spec: DeviceSpec = EVAL_SPEC,
) -> HeuristicProbe:
    """Run only the heuristic + 2-clique setup phases."""
    from ..core.heuristics import run_heuristic
    from ..core.setup import build_two_clique_list
    from ..graph.kcore import core_numbers

    device = Device(device_spec)
    t0 = time.perf_counter()
    ranks = (
        core_numbers(graph, device)
        if kind.uses_core_numbers
        else graph.degrees
    )
    report = run_heuristic(graph, kind, device, ranks=ranks)
    lb = max(report.lower_bound, 2)
    heuristic_model = device.model_time_s
    _, _, setup_stats = build_two_clique_list(graph, lb, device, ranks=ranks)
    return HeuristicProbe(
        dataset=spec.name,
        kind=kind.value,
        lower_bound=report.lower_bound,
        model_time_s=heuristic_model,
        wall_time_s=time.perf_counter() - t0,
        setup_pruned_fraction=setup_stats.pruned_fraction,
    )
