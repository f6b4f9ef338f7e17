"""Windowed breadth-first search (paper Section IV-E).

When the full breadth-first candidate set cannot fit in device memory,
the 2-clique list is split into *windows* and the breadth-first search
runs on one window at a time, solving for a single maximum clique
rather than enumerating all of them. The sweep itself -- window
splitting and ordering, the ω̄ carry, adaptive splitting,
checkpoint/resume -- lives in :func:`repro.engine.sweep.window_sweep`
(shared with the concurrent-fanout variant); ``windowed_search``
configures it at ``fanout=1``, the paper's sequential sweep.

The search order across windows is configurable (ascending /
descending source degree, or the natural randomised order), matching
the orderings compared in Section V-C1. As an extension,
``window_size="auto"`` derives a window length from the device budget
and a Moon-Moser-style expansion estimate (the technique Wei et al.
use to size subtrees; see DESIGN.md section 5).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from ..engine.problems import ProblemKind
from ..engine.sweep import (
    WindowedOutcome,
    auto_window_size,
    split_windows,
    window_sweep,
)
from ..gpusim.device import Device
from ..graph.csr import CSRGraph
from .checkpoint import SearchCheckpoint
from .config import WindowOrder
from .deadline import Deadline

__all__ = ["WindowedOutcome", "windowed_search", "auto_window_size", "split_windows"]


def windowed_search(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    omega_bar: int,
    heuristic_clique: np.ndarray,
    device: Device,
    window_size: Union[int, str],
    window_order: WindowOrder = WindowOrder.NATURAL,
    chunk_pairs: int = 1 << 22,
    early_exit_heuristic: bool = False,
    deadline: Union[None, float, Deadline] = None,
    adaptive: bool = False,
    checkpoint: Optional[SearchCheckpoint] = None,
    checkpoint_sink: Optional[Callable[[SearchCheckpoint], None]] = None,
    kind: Optional[ProblemKind] = None,
) -> WindowedOutcome:
    """Run the sequential windowed variant over a prepared 2-clique list.

    Returns the single best clique found across all windows (at least
    the heuristic clique).

    With ``adaptive=True`` (the recursive-windowing extension the
    paper sketches in Section V-C3), a window whose subtree exceeds
    device memory is split in half at a sublist boundary and each half
    is retried, recursively, down to single sublists. Only a single
    sublist whose own subtree exceeds the budget still raises
    :class:`~repro.errors.DeviceOOMError`.

    Checkpoint/resume: with a ``checkpoint`` the sweep skips its
    completed windows and resumes from the checkpoint's pending ranges
    with its best clique as the ω̄ floor (the caller must have verified
    graph/config identity -- ranges index the *ordered* 2-clique list).
    ``checkpoint_sink`` is called with a fresh
    :class:`~repro.core.checkpoint.SearchCheckpoint` after every
    completed window (fingerprints left empty at this layer); a
    :class:`~repro.errors.DeviceLostError` escaping a window carries
    the latest state in its ``checkpoint`` attribute, with the
    interrupted window first in ``pending``.
    """
    return window_sweep(
        graph,
        src,
        dst,
        omega_bar,
        heuristic_clique,
        device,
        window_size=window_size,
        fanout=1,
        window_order=window_order,
        chunk_pairs=chunk_pairs,
        early_exit_heuristic=early_exit_heuristic,
        deadline=deadline,
        adaptive=adaptive,
        checkpoint=checkpoint,
        checkpoint_sink=checkpoint_sink,
        label="windowed search",
        kind=kind,
    )
