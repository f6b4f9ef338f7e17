"""Programmatic ablation studies of the paper's design choices.

DESIGN.md section 5 lists the design decisions worth isolating. Each
function here runs one of them over (a slice of) the suite and
returns a comparison table; ``benchmarks/bench_ablation_*.py`` are
thin assertion wrappers over the same code, and
``python -m repro.experiments.regenerate --ablations`` appends these
to the full report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..core.config import RankKey, SolverConfig, SublistOrder
from ..datasets.suite import iter_suite
from ..gpusim.spec import DeviceSpec
from .harness import EVAL_SPEC, RunRecord, run_config
from .report import geometric_mean, render_table

__all__ = [
    "AblationResult",
    "orientation_ablation",
    "sublist_order_ablation",
    "coloring_preprune_ablation",
    "window_fanout_ablation",
]


@dataclass
class AblationResult:
    """Per-dataset records for each arm of one ablation."""

    name: str
    arms: Tuple[str, ...]
    rows: List[Tuple[str, Dict[str, RunRecord]]] = field(default_factory=list)

    def agreeing_rows(self) -> List[Dict[str, RunRecord]]:
        """Rows where every arm completed."""
        return [
            recs for _, recs in self.rows if all(recs[a].ok for a in self.arms)
        ]

    def geomean_time_ratio(self, arm: str, baseline: str) -> float:
        """Geo-mean model-time ratio arm/baseline over completing rows."""
        return geometric_mean(
            [
                recs[arm].model_time_s / recs[baseline].model_time_s
                for recs in self.agreeing_rows()
                if recs[baseline].model_time_s > 0
            ]
        )

    def render(self) -> str:
        headers = ["dataset"]
        for a in self.arms:
            headers += [f"{a} time", f"{a} pruned"]
        body = []
        for name, recs in self.rows:
            row = [name]
            for a in self.arms:
                r = recs[a]
                row += [
                    f"{r.model_time_s * 1e3:.3f}ms" if r.ok else r.outcome,
                    f"{r.pruned_fraction:.1%}" if r.ok else "-",
                ]
            body.append(row)
        return render_table(headers, body, title=f"Ablation: {self.name}")


def _run_arms(
    name: str,
    configs: Dict[str, SolverConfig],
    max_edges: Optional[int],
    limit: Optional[int],
    device_spec: DeviceSpec,
    timeout_s: float,
) -> AblationResult:
    result = AblationResult(name=name, arms=tuple(configs))
    for spec, graph in iter_suite(max_edges=max_edges, limit=limit):
        recs = {
            # a fresh copy per run: run_config writes its time limit
            # into the config it is given
            arm: run_config(spec, graph, replace(cfg), device_spec, timeout_s)
            for arm, cfg in configs.items()
        }
        # every completing arm must agree on the answer
        omegas = {r.omega for r in recs.values() if r.ok}
        assert len(omegas) <= 1, f"{spec.name}: arms disagree: {omegas}"
        result.rows.append((spec.name, recs))
    return result


def orientation_ablation(
    max_edges: Optional[int] = None,
    limit: Optional[int] = 24,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: float = 60.0,
) -> AblationResult:
    """Degree orientation vs index orientation (paper Section IV-C)."""
    return _run_arms(
        "orientation (degree vs index)",
        {
            "degree": SolverConfig(orientation_key=RankKey.DEGREE),
            "index": SolverConfig(orientation_key=RankKey.INDEX),
        },
        max_edges, limit, device_spec, timeout_s,
    )


def sublist_order_ablation(
    max_edges: Optional[int] = None,
    limit: Optional[int] = 24,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: float = 60.0,
) -> AblationResult:
    """Within-sublist degree sort vs natural order (Section IV-C)."""
    return _run_arms(
        "sublist order (degree sort vs natural)",
        {
            "degree-sorted": SolverConfig(sublist_order=SublistOrder.DEGREE),
            "natural": SolverConfig(sublist_order=SublistOrder.INDEX),
        },
        max_edges, limit, device_spec, timeout_s,
    )


def coloring_preprune_ablation(
    max_edges: Optional[int] = 40_000,
    limit: Optional[int] = 16,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: float = 60.0,
) -> AblationResult:
    """Colouring-bound pre-pruning on vs off (Section II-B3 extension)."""
    return _run_arms(
        "colouring pre-prune",
        {
            "plain": SolverConfig(),
            "colored": SolverConfig(coloring_preprune=True),
        },
        max_edges, limit, device_spec, timeout_s,
    )


def window_fanout_ablation(
    max_edges: Optional[int] = None,
    limit: Optional[int] = 16,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: float = 60.0,
    window_size: int = 1024,
) -> AblationResult:
    """Sequential vs concurrent windows (Section V-C3 extension)."""
    return _run_arms(
        f"window fanout (window={window_size})",
        {
            "fanout-1": SolverConfig(window_size=window_size),
            "fanout-8": SolverConfig(window_size=window_size, window_fanout=8),
        },
        max_edges, limit, device_spec, timeout_s,
    )
