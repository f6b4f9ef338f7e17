"""Figures 2-6 of the paper as data-series generators.

Each ``figureN`` function returns a small dataclass holding the exact
series the paper plots plus a ``render()`` method printing them; the
benchmark harness asserts the paper's qualitative shapes (sign of
trends, who wins where) on these series. No plotting library is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..core.config import Heuristic, SolverConfig, WindowOrder
from ..datasets.suite import iter_suite
from ..gpusim.spec import DeviceSpec
from .harness import EVAL_SPEC, HEURISTICS, RunRecord, best_run, run_config
from .report import geometric_mean, render_table, spearman
from .tables import full_sweep

__all__ = [
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "ThroughputFigure",
    "SpeedupFigure",
    "HeuristicFigure",
    "WindowFigure",
]

#: window sizes evaluated by the paper's windowing study (Section V-C)
WINDOW_SIZES: Tuple[int, int] = (1024, 32768)


@lru_cache(maxsize=4)
def _windowed_best(
    max_edges: Optional[int],
    limit: Optional[int],
    device_spec: DeviceSpec,
    timeout_s: float,
) -> Dict[str, RunRecord]:
    """Fastest windowed run per dataset (multi-degree heuristic)."""
    out: Dict[str, RunRecord] = {}
    for spec, graph in iter_suite(max_edges=max_edges, limit=limit):
        runs = []
        for w in WINDOW_SIZES:
            config = SolverConfig(
                heuristic=Heuristic.MULTI_DEGREE, window_size=w
            )
            runs.append(run_config(spec, graph, config, device_spec, timeout_s))
        best = best_run(runs)
        if best is not None:
            out[spec.name] = best
    return out


@dataclass
class ThroughputFigure:
    """Figures 2 and 3: throughput for the fastest configuration.

    One row per dataset: ``(name, x, bf_eps, win_eps)`` where ``x`` is
    the average degree (Fig. 2) or edge count (Fig. 3) and the
    throughputs are edges/second of model time (0 when that variant
    failed on the dataset).
    """

    x_label: str
    rows: List[Tuple[str, float, float, float]] = field(default_factory=list)
    #: (name, avg_degree, num_edges) per row, for size-controlled stats
    meta: List[Tuple[str, float, int]] = field(default_factory=list)

    @property
    def bf_correlation(self) -> float:
        pts = [(x, bf) for _, x, bf, _ in self.rows if bf > 0]
        return spearman([p[0] for p in pts], [p[1] for p in pts])

    @property
    def windowed_correlation(self) -> float:
        pts = [(x, w) for _, x, _, w in self.rows if w > 0]
        return spearman([p[0] for p in pts], [p[1] for p in pts])

    def size_adjusted_degree_correlation(self, which: str = "bf") -> float:
        """Degree-vs-throughput correlation at fixed graph size.

        The paper's mechanism (Section V-A) is *per-size*: among
        graphs of similar size, higher average degree means lower
        throughput. Raw throughput also rises with |E| (Figure 3), so
        on a suite whose sizes span 100x the size effect can mask the
        degree effect. This regresses log-throughput on log|E| and
        correlates the residuals with average degree -- the paper's
        claim predicts a clearly negative value.
        """
        import numpy as _np

        col = 2 if which == "bf" else 3
        by_name = {name: (deg, m) for name, deg, m in self.meta}
        pts = [
            (by_name[r[0]][0], by_name[r[0]][1], r[col])
            for r in self.rows
            if r[col] > 0 and r[0] in by_name
        ]
        if len(pts) < 3:
            return float("nan")
        deg = _np.array([p[0] for p in pts])
        loge = _np.log(_np.array([p[1] for p in pts], dtype=float))
        logt = _np.log(_np.array([p[2] for p in pts], dtype=float))
        slope, intercept = _np.polyfit(loge, logt, 1)
        residuals = logt - (slope * loge + intercept)
        return spearman(deg.tolist(), residuals.tolist())

    def render(self) -> str:
        table = render_table(
            ["dataset", self.x_label, "BF edges/s", "windowed edges/s"],
            [
                (n, x, bf if bf else "OOM", w if w else "OOM")
                for n, x, bf, w in sorted(self.rows, key=lambda r: r[1])
            ],
        )
        extra = ""
        if self.meta:
            extra = (
                f"\nsize-adjusted Spearman(avg_degree, BF throughput) = "
                f"{self.size_adjusted_degree_correlation('bf'):+.2f}"
                f"\nsize-adjusted Spearman(avg_degree, windowed throughput) = "
                f"{self.size_adjusted_degree_correlation('windowed'):+.2f}"
            )
        return (
            f"{table}\n"
            f"Spearman({self.x_label}, BF throughput) = {self.bf_correlation:+.2f}\n"
            f"Spearman({self.x_label}, windowed throughput) = "
            f"{self.windowed_correlation:+.2f}{extra}"
        )


def _throughput_rows(
    x_of, x_label, max_edges, limit, device_spec, timeout_s
) -> ThroughputFigure:
    data = full_sweep(max_edges, limit, device_spec, timeout_s)
    windowed = _windowed_best(max_edges, limit, device_spec, timeout_s)
    fig = ThroughputFigure(x_label=x_label)
    for spec, graph in iter_suite(max_edges=max_edges, limit=limit):
        runs = [data.runs[(spec.name, h.value)] for h in HEURISTICS]
        best = best_run(runs)
        bf_eps = best.throughput_eps if best else 0.0
        win = windowed.get(spec.name)
        win_eps = win.throughput_eps if win else 0.0
        fig.rows.append((spec.name, x_of(graph), bf_eps, win_eps))
        fig.meta.append((spec.name, graph.average_degree, graph.num_edges))
    return fig


def figure2(
    max_edges: Optional[int] = None,
    limit: Optional[int] = None,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: float = 120.0,
) -> ThroughputFigure:
    """Figure 2: throughput vs. average vertex degree.

    Paper shape: throughput falls as average degree rises (negative
    correlation), for both the full BF and windowed variants.
    """
    return _throughput_rows(
        lambda g: g.average_degree, "avg_degree",
        max_edges, limit, device_spec, timeout_s,
    )


def figure3(
    max_edges: Optional[int] = None,
    limit: Optional[int] = None,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: float = 120.0,
) -> ThroughputFigure:
    """Figure 3: throughput vs. number of edges.

    Paper shape: throughput rises with graph size (positive
    correlation) -- bigger graphs keep the device busier.
    """
    return _throughput_rows(
        lambda g: float(g.num_edges), "num_edges",
        max_edges, limit, device_spec, timeout_s,
    )


@dataclass
class SpeedupFigure:
    """Figure 4: speedup over the PMC baseline.

    One row per dataset: ``(name, avg_degree, bf_speedup,
    windowed_speedup)``; 0 marks a failed variant.
    """

    rows: List[Tuple[str, float, float, float]] = field(default_factory=list)

    @property
    def bf_geomean(self) -> float:
        return geometric_mean([s for _, _, s, _ in self.rows if s > 0])

    @property
    def low_degree_geomean(self) -> float:
        med = self._median_degree()
        return geometric_mean(
            [s for _, d, s, _ in self.rows if s > 0 and d <= med]
        )

    @property
    def high_degree_geomean(self) -> float:
        med = self._median_degree()
        return geometric_mean(
            [s for _, d, s, _ in self.rows if s > 0 and d > med]
        )

    def _median_degree(self) -> float:
        ds = sorted(d for _, d, _, _ in self.rows)
        return ds[len(ds) // 2] if ds else 0.0

    def render(self) -> str:
        table = render_table(
            ["dataset", "avg_degree", "BF speedup", "windowed speedup"],
            [
                (n, d, f"{s:.2f}x" if s else "OOM", f"{w:.2f}x" if w else "OOM")
                for n, d, s, w in sorted(self.rows, key=lambda r: r[1])
            ],
        )
        return (
            f"{table}\n"
            f"geo-mean BF speedup over PMC: {self.bf_geomean:.2f}x "
            f"(low-degree half {self.low_degree_geomean:.2f}x, "
            f"high-degree half {self.high_degree_geomean:.2f}x)"
        )


def figure4(
    max_edges: Optional[int] = None,
    limit: Optional[int] = None,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: float = 120.0,
) -> SpeedupFigure:
    """Figure 4: per-dataset speedup over PMC (model time).

    Paper shape: the breadth-first GPU solver wins on low-degree
    graphs (avg ~1.9x overall) while PMC wins on high-degree graphs;
    windowed-only datasets favour PMC heavily.
    """
    data = full_sweep(max_edges, limit, device_spec, timeout_s)
    windowed = _windowed_best(max_edges, limit, device_spec, timeout_s)
    fig = SpeedupFigure()
    for spec, graph in iter_suite(max_edges=max_edges, limit=limit):
        pmc_t = data.pmc_model_time[spec.name]
        runs = [data.runs[(spec.name, h.value)] for h in HEURISTICS]
        best = best_run(runs)
        bf = pmc_t / best.model_time_s if best and best.model_time_s > 0 else 0.0
        win = windowed.get(spec.name)
        win_s = pmc_t / win.model_time_s if win and win.model_time_s > 0 else 0.0
        fig.rows.append((spec.name, graph.average_degree, bf, win_s))
    return fig


@dataclass
class HeuristicFigure:
    """Figure 5 panels: heuristic runtime and pruning behaviour.

    ``runtime_rows``: ``(dataset, num_edges, avg_degree, {kind: model
    time})`` (panels a and c); ``quality_rows``: ``(dataset, kind,
    accuracy, pruned_fraction)`` (panel b).
    """

    runtime_rows: List[Tuple[str, int, float, Dict[str, float]]] = field(
        default_factory=list
    )
    quality_rows: List[Tuple[str, str, float, float]] = field(
        default_factory=list
    )

    def runtime_correlation(self, kind: str, x: str = "edges") -> float:
        xs, ys = [], []
        for _, m, d, times in self.runtime_rows:
            if kind in times:
                xs.append(m if x == "edges" else d)
                ys.append(times[kind])
        return spearman(xs, ys)

    def accuracy_pruning_correlation(self) -> float:
        xs = [acc for _, _, acc, _ in self.quality_rows]
        ys = [p for _, _, _, p in self.quality_rows]
        return spearman(xs, ys)

    def render(self) -> str:
        kinds = [h.value for h in HEURISTICS if h is not Heuristic.NONE]
        rt = render_table(
            ["dataset", "|E|", "avg_deg"] + [f"t({k})" for k in kinds],
            [
                [n, m, f"{d:.1f}"] + [f"{times.get(k, 0) * 1e3:.3f}ms" for k in kinds]
                for n, m, d, times in sorted(
                    self.runtime_rows, key=lambda r: r[1]
                )
            ],
            title="Figure 5a/5c: heuristic model runtime",
        )
        qt = render_table(
            ["dataset", "heuristic", "accuracy", "pruned"],
            [
                (n, k, f"{a:.2f}", f"{p:.1%}")
                for n, k, a, p in self.quality_rows
            ],
            title="Figure 5b: pruning vs. accuracy",
        )
        lines = [rt]
        for k in kinds:
            lines.append(
                f"Spearman(|E|, t[{k}]) = {self.runtime_correlation(k):+.2f}; "
                f"Spearman(avg_deg, t[{k}]) = "
                f"{self.runtime_correlation(k, x='degree'):+.2f}"
            )
        lines.append(qt)
        lines.append(
            f"Spearman(accuracy, pruned fraction) = "
            f"{self.accuracy_pruning_correlation():+.2f}"
        )
        return "\n".join(lines)


def figure5(
    max_edges: Optional[int] = None,
    limit: Optional[int] = None,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: float = 120.0,
) -> HeuristicFigure:
    """Figure 5: heuristic runtimes (a: vs |E|; c: vs avg degree) and
    pruning-vs-accuracy (b).

    Paper shapes: runtime grows with |E| but not with average degree;
    pruning quality correlates with accuracy; core-number variants pay
    a large k-core cost.
    """
    data = full_sweep(max_edges, limit, device_spec, timeout_s)
    fig = HeuristicFigure()
    for spec, graph in iter_suite(max_edges=max_edges, limit=limit):
        times: Dict[str, float] = {}
        omega = data.true_omega[spec.name]
        for h in HEURISTICS:
            if h is Heuristic.NONE:
                continue
            probe = data.probes[(spec.name, h.value)]
            times[h.value] = probe.model_time_s
            accuracy = probe.lower_bound / omega if omega else 1.0
            fig.quality_rows.append(
                (spec.name, h.value, accuracy, probe.setup_pruned_fraction)
            )
        fig.runtime_rows.append(
            (spec.name, graph.num_edges, graph.average_degree, times)
        )
    return fig


@dataclass
class WindowFigure:
    """Figure 6 + Section V-C2: windowed memory and runtime trade-off.

    ``rows``: ``(dataset, full_mem, {window: mem}, {window: runtime
    speedup vs full})``; mem is clique-list peak bytes.
    """

    rows: List[
        Tuple[str, float, Dict[int, float], Dict[int, float]]
    ] = field(default_factory=list)
    ordering_mem: Dict[str, float] = field(default_factory=dict)

    def mean_reduction(self, window: int) -> float:
        """Average memory reduction for a window size (paper: 85-94%)."""
        vals = []
        for _, full_mem, mems, _ in self.rows:
            m = mems.get(window)
            if m is not None and full_mem > 0:
                vals.append(1.0 - m / full_mem)
        return sum(vals) / len(vals) if vals else float("nan")

    def runtime_geomean(self, window: int) -> float:
        """Geo-mean windowed/full speedup (paper: 0.53x @1024, 0.89x @32768)."""
        vals = []
        for _, _, _, speeds in self.rows:
            s = speeds.get(window)
            if s:
                vals.append(s)
        return geometric_mean(vals)

    def render(self) -> str:
        windows = sorted({w for _, _, m, _ in self.rows for w in m})
        table = render_table(
            ["dataset", "full MiB"]
            + [f"win{w} MiB" for w in windows]
            + [f"win{w} speed" for w in windows],
            [
                [n, f"{full / 2**20:.2f}"]
                + [
                    f"{mems[w] / 2**20:.2f}" if w in mems else "-"
                    for w in windows
                ]
                + [
                    f"{speeds[w]:.2f}x" if w in speeds else "-"
                    for w in windows
                ]
                for n, full, mems, speeds in self.rows
            ],
            title="Figure 6: windowed vs full-BF clique-list memory",
        )
        lines = [table]
        for w in windows:
            lines.append(
                f"window {w}: mean memory reduction "
                f"{self.mean_reduction(w):.1%}, runtime geo-mean "
                f"{self.runtime_geomean(w):.2f}x of full BF"
            )
        if self.ordering_mem:
            lines.append(
                "ordering peak-memory geo-mean (MiB): "
                + ", ".join(
                    f"{k}={v / 2**20:.3f}"
                    for k, v in self.ordering_mem.items()
                )
            )
        return "\n".join(lines)


def figure6(
    max_edges: Optional[int] = None,
    limit: Optional[int] = None,
    device_spec: DeviceSpec = EVAL_SPEC,
    timeout_s: float = 120.0,
    orderings: bool = True,
) -> WindowFigure:
    """Figure 6: windowed memory use vs full BF (multi-run degree
    heuristic), plus the Section V-C windowed runtime factors and the
    source-ordering comparison.

    Paper shapes: windowing cuts clique-list memory 85-94% (more for
    smaller windows); smaller windows run slower; descending-degree
    ordering uses the most memory.
    """
    data = full_sweep(max_edges, limit, device_spec, timeout_s)
    fig = WindowFigure()
    per_order_mem: Dict[str, List[float]] = {}
    for spec, graph in iter_suite(max_edges=max_edges, limit=limit):
        full = data.runs[(spec.name, Heuristic.MULTI_DEGREE.value)]
        if not full.ok:
            continue
        mems: Dict[int, float] = {}
        speeds: Dict[int, float] = {}
        for w in WINDOW_SIZES:
            config = SolverConfig(heuristic=Heuristic.MULTI_DEGREE, window_size=w)
            rec = run_config(spec, graph, config, device_spec, timeout_s)
            if rec.ok:
                mems[w] = float(rec.search_memory_bytes)
                if rec.model_time_s > 0:
                    speeds[w] = full.model_time_s / rec.model_time_s
        fig.rows.append(
            (spec.name, float(full.search_memory_bytes), mems, speeds)
        )
        if orderings:
            for order in WindowOrder:
                config = SolverConfig(
                    heuristic=Heuristic.MULTI_DEGREE,
                    window_size=WINDOW_SIZES[0],
                    window_order=order,
                )
                rec = run_config(spec, graph, config, device_spec, timeout_s)
                if rec.ok:
                    per_order_mem.setdefault(order.value, []).append(
                        float(rec.search_memory_bytes)
                    )
    for k, vals in per_order_mem.items():
        fig.ordering_mem[k] = geometric_mean([max(v, 1.0) for v in vals])
    return fig
