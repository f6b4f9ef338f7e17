"""Plain-text rendering and small statistics helpers for experiments.

The harness prints the same rows/series the paper's tables and figures
report; these utilities keep that output consistent and dependency-free
(no plotting libraries are assumed in the offline environment).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "render_table",
    "render_series",
    "geometric_mean",
    "spearman",
    "format_bytes",
    "format_time",
]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    name: str,
    xs: Sequence[float],
    ys: Sequence[float],
    x_label: str = "x",
    y_label: str = "y",
    max_points: int = 80,
) -> str:
    """Print a figure's data series as aligned (x, y) pairs."""
    lines = [f"series {name}: {y_label} vs {x_label} ({len(xs)} points)"]
    for x, y in list(zip(xs, ys))[:max_points]:
        lines.append(f"  {x:>14.4g}  {y:>14.4g}")
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's speedup aggregation); nan if empty."""
    vals = [v for v in values if v > 0 and math.isfinite(v)]
    if not vals:
        return float("nan")
    return float(np.exp(np.mean(np.log(vals))))


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (sign test for figure trends)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size < 2:
        return float("nan")
    rx = _ranks(x)
    ry = _ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx * rx).sum()) * float((ry * ry).sum()))
    if denom == 0:
        return float("nan")
    return float((rx * ry).sum() / denom)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks with tie handling."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0
        i = j + 1
    return ranks


def format_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.2f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.2f} GiB"  # pragma: no cover


def format_time(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.2f} s"
