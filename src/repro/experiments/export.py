"""Persistence of experiment results (CSV / JSON).

The paper's artifacts are plots over per-dataset rows; downstream
users re-plot them. These helpers serialise the harness's records and
the table/figure objects into plain files, so a full regeneration can
be archived (see ``results/``) and re-rendered without re-running
anything.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Iterable, List, Union

from .figures import SpeedupFigure, ThroughputFigure, WindowFigure
from .harness import RunRecord
from .tables import Table1, Table2

__all__ = [
    "run_records_to_csv",
    "run_record_dicts",
    "table1_to_csv",
    "table2_to_csv",
    "figure_to_csv",
    "to_json",
]

PathLike = Union[str, Path]


def run_record_dicts(records: Iterable[RunRecord]) -> List[dict]:
    """Plain-dict form of harness records (JSON-ready)."""
    return [dataclasses.asdict(r) for r in records]


def run_records_to_csv(records: Iterable[RunRecord], path: PathLike) -> None:
    """Write harness records as CSV (one row per run)."""
    rows = run_record_dicts(records)
    if not rows:
        Path(path).write_text("")
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def table1_to_csv(table: Table1, path: PathLike) -> None:
    """Serialise Table I rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["heuristic", "mean_error", "solved", "oom_fraction"])
        writer.writerows(table.rows)


def table2_to_csv(table: Table2, path: PathLike) -> None:
    """Serialise Table II cells (long form)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["baseline", "group_size", "column", "geomean_speedup"])
        for baseline, cells in table.cells.items():
            for column, value in cells.items():
                writer.writerow(
                    [baseline, table.group_sizes.get(baseline, 0), column, value]
                )


def figure_to_csv(
    figure: Union[ThroughputFigure, SpeedupFigure, WindowFigure],
    path: PathLike,
) -> None:
    """Serialise a figure's data series."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if isinstance(figure, ThroughputFigure):
            writer.writerow(
                ["dataset", figure.x_label, "bf_eps", "windowed_eps"]
            )
            writer.writerows(figure.rows)
        elif isinstance(figure, SpeedupFigure):
            writer.writerow(
                ["dataset", "avg_degree", "bf_speedup", "windowed_speedup"]
            )
            writer.writerows(figure.rows)
        elif isinstance(figure, WindowFigure):
            windows = sorted({w for _, _, m, _ in figure.rows for w in m})
            writer.writerow(
                ["dataset", "full_bytes"]
                + [f"mem_{w}" for w in windows]
                + [f"speed_{w}" for w in windows]
            )
            for name, full, mems, speeds in figure.rows:
                writer.writerow(
                    [name, full]
                    + [mems.get(w, "") for w in windows]
                    + [speeds.get(w, "") for w in windows]
                )
        else:  # pragma: no cover - exhaustive dispatch
            raise TypeError(f"unsupported figure type {type(figure).__name__}")


def to_json(obj, path: PathLike) -> None:
    """Dump records/tables to JSON (dataclasses handled)."""

    def default(o):
        if dataclasses.is_dataclass(o):
            return dataclasses.asdict(o)
        if hasattr(o, "tolist"):
            return o.tolist()
        raise TypeError(f"cannot serialise {type(o).__name__}")

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, default=default)
