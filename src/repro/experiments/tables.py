"""Table I and Table II of the paper.

Table I compares the heuristics on accuracy (mean error of ω̄ against
the true ω, from the exact PMC baseline), graphs solvable by the full
breadth-first search without OOM, and the OOM rate. Table II reports
geometric-mean speedups from switching between heuristics, grouped by
the simplest heuristic each dataset *requires* to complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..core.config import Heuristic
from ..gpusim.spec import DeviceSpec
from .harness import (
    EVAL_SPEC,
    HEURISTICS,
    HeuristicProbe,
    RunRecord,
    heuristic_probe,
    pmc_reference,
    run_config,
)
from ..core.config import SolverConfig
from ..datasets.suite import iter_suite
from .report import geometric_mean, render_table

__all__ = ["Table1", "Table2", "table1", "table2", "full_sweep"]


@dataclass
class SweepData:
    """Shared runs used by both tables."""

    datasets: List[str]
    true_omega: Dict[str, int]
    runs: Dict[Tuple[str, str], RunRecord]  # (dataset, heuristic value)
    probes: Dict[Tuple[str, str], HeuristicProbe]
    pmc_model_time: Dict[str, float]


@lru_cache(maxsize=4)
def full_sweep(
    max_edges: Optional[int] = None,
    limit: Optional[int] = None,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: float = 120.0,
) -> SweepData:
    """Run all 5 heuristic settings (full BF) + probes over the suite."""
    data = SweepData(
        datasets=[], true_omega={}, runs={}, probes={}, pmc_model_time={}
    )
    for spec, graph in iter_suite(max_edges=max_edges, limit=limit):
        data.datasets.append(spec.name)
        ref = pmc_reference(spec)
        data.true_omega[spec.name] = ref.clique_number
        data.pmc_model_time[spec.name] = ref.model_time_s
        for h in HEURISTICS:
            config = SolverConfig(heuristic=h)
            data.runs[(spec.name, h.value)] = run_config(
                spec, graph, config, device_spec, timeout_s
            )
            data.probes[(spec.name, h.value)] = heuristic_probe(
                spec, graph, h, device_spec
            )
    return data


@dataclass
class Table1:
    """Reproduction of Table I."""

    rows: List[Tuple[str, float, int, float]] = field(default_factory=list)
    total: int = 0

    def render(self) -> str:
        return render_table(
            ["Heuristic", "Mean Error", f"Solved (of {self.total})", "OOM"],
            [
                (name, f"{err:.1%}", solved, f"{oom:.1%}")
                for name, err, solved, oom in self.rows
            ],
            title="Table I: heuristic accuracy and full-BF solvability",
        )

    def by_heuristic(self) -> Dict[str, Tuple[float, int, float]]:
        return {name: (err, solved, oom) for name, err, solved, oom in self.rows}


def table1(
    max_edges: Optional[int] = None,
    limit: Optional[int] = None,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: float = 120.0,
    include_pmc_row: bool = True,
) -> Table1:
    """Compute Table I over the (optionally filtered) suite."""
    data = full_sweep(max_edges, limit, device_spec, timeout_s)
    out = Table1(total=len(data.datasets))
    for h in HEURISTICS:
        errors = []
        solved = 0
        oom = 0
        for name in data.datasets:
            omega = data.true_omega[name]
            lb = 1 if h is Heuristic.NONE else data.probes[(name, h.value)].lower_bound
            if omega > 0:
                errors.append(max(omega - lb, 0) / omega)
            run = data.runs[(name, h.value)]
            if run.ok:
                solved += 1
            elif run.outcome == "oom":
                oom += 1
        out.rows.append(
            (
                h.value,
                sum(errors) / len(errors) if errors else 0.0,
                solved,
                oom / max(len(data.datasets), 1),
            )
        )
    if include_pmc_row:
        # PMC's own heuristic accuracy (it never OOMs: depth-first)
        from ..baselines.pmc import pmc_heuristic
        from ..datasets.suite import load
        from ..graph.kcore import core_numbers

        errors = []
        for name in data.datasets:
            g = load(name)
            core = core_numbers(g)
            lb, _ = pmc_heuristic(g, core)
            omega = data.true_omega[name]
            if omega > 0:
                errors.append(max(omega - lb, 0) / omega)
        out.rows.append(
            (
                "rossi-pmc",
                sum(errors) / len(errors) if errors else 0.0,
                len(data.datasets),
                0.0,
            )
        )
    return out


@dataclass
class Table2:
    """Reproduction of Table II (geo-mean speedups between heuristics)."""

    # rows[baseline][column] = geometric-mean speedup
    cells: Dict[str, Dict[str, float]] = field(default_factory=dict)
    group_sizes: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        baselines = list(self.cells)
        columns = [h.value for h in HEURISTICS[1:]]
        rows = []
        for b in baselines:
            row = [f"{b} (n={self.group_sizes.get(b, 0)})"]
            for c in columns:
                v = self.cells[b].get(c)
                row.append("-" if v is None or v != v else f"{v:.2f}x")
            rows.append(row)
        return render_table(
            ["Baseline"] + columns,
            rows,
            title="Table II: geo-mean speedup of column heuristic over baseline",
        )


def table2(
    max_edges: Optional[int] = None,
    limit: Optional[int] = None,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: float = 120.0,
) -> Table2:
    """Compute Table II: group datasets by the simplest heuristic that
    completes, then compare runtimes against that baseline."""
    data = full_sweep(max_edges, limit, device_spec, timeout_s)
    out = Table2()
    # group each dataset under its simplest completing heuristic
    groups: Dict[str, List[str]] = {h.value: [] for h in HEURISTICS}
    for name in data.datasets:
        for h in HEURISTICS:
            if data.runs[(name, h.value)].ok:
                groups[h.value].append(name)
                break
    order = [h.value for h in HEURISTICS]
    for bi, baseline in enumerate(order[:-1]):
        members = groups[baseline]
        out.group_sizes[baseline] = len(members)
        out.cells[baseline] = {}
        for column in order[bi + 1 :]:
            speedups = []
            for name in members:
                rb = data.runs[(name, baseline)]
                rc = data.runs[(name, column)]
                if rb.ok and rc.ok and rc.model_time_s > 0:
                    speedups.append(rb.model_time_s / rc.model_time_s)
            out.cells[baseline][column] = geometric_mean(speedups)
    return out
