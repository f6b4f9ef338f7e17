"""The window sweep shared by the sequential and concurrent searches.

When the full breadth-first candidate set cannot fit in device memory,
the 2-clique list is split into *windows* and the level loop runs on
one ``fanout``-sized group of windows at a time, solving for a single
maximum clique rather than enumerating all of them (paper Section
IV-E). Window boundaries are snapped to sublist ends (a candidate
needs every vertex after it in its sublist), the best clique found so
far raises ω̄ for later groups, and each group's clique lists are
freed before the next begins -- peak memory is set by the largest
single-group subtree instead of the whole search.

:func:`window_sweep` is one loop over the groups: window splitting
and ordering, the ω̄ carry, per-group deadline checks, peak
accounting, adaptive splitting, and checkpoint capture. The per-level
work is delegated to :class:`~repro.engine.driver.LevelDriver` -- one
lane per window of the group, isolated launches for ``fanout=1``,
merged (fused) launches for ``fanout>1`` -- so ``fanout=1`` follows
the exact sequential schedule and the concurrent path is the same
sweep under a different launch schedule. The early exit, adaptive
splits and checkpoints apply at ``fanout=1`` only. A group's level
stats reach the outcome only once the group completes, so a window
that runs out of memory and splits leaves none behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, List, Optional, Tuple, Union

import numpy as np

from ..errors import DeviceLostError, DeviceOOMError
from ..gpusim.device import Device
from ..graph.build import run_positions
from ..graph.csr import CSRGraph
from ..core.checkpoint import SearchCheckpoint
from ..core.config import WindowOrder
from ..core.deadline import Deadline, as_deadline
from ..core.result import LevelStats, WindowStats
from .driver import LevelDriver
from .problems import MAX_CLIQUE, ProblemKind, merge_state

__all__ = [
    "WindowedOutcome",
    "window_sweep",
    "auto_window_size",
    "split_windows",
    "order_groups",
    "split_range",
]


@dataclass
class WindowedOutcome:
    """Result of a windowed search (one maximum clique).

    For non-default problem kinds ``state`` carries the kind's merged
    accumulator (every window's counts/cliques folded together); the
    clique fields then describe only the heuristic floor.
    """

    best_clique: np.ndarray
    omega: int
    windows: List[WindowStats] = field(default_factory=list)
    levels: List[LevelStats] = field(default_factory=list)
    candidates_stored: int = 0
    candidates_pruned: int = 0
    peak_window_bytes: int = 0
    stopped_by_heuristic: bool = False
    adaptive_splits: int = 0
    state: Any = None


def auto_window_size(
    graph: CSRGraph, device: Device, num_two_cliques: int
) -> int:
    """Moon-Moser-guided window size (extension).

    Bounds the candidates a window can generate by ``W * 3^(t/3)``
    (Moon & Moser's maximal-clique bound applied to the average
    sublist tail ``t``) and sizes ``W`` so that estimate fits in a
    quarter of the free device budget.
    """
    budget = device.pool.budget_bytes
    if budget is None:
        return max(num_two_cliques, 1)
    free = max(budget - device.pool.in_use_bytes, 1)
    n = max(graph.num_vertices, 1)
    avg_tail = max(num_two_cliques / n - 1.0, 0.0)
    expansion = 3.0 ** (min(avg_tail, 48.0) / 3.0)
    bytes_per_candidate = 8.0  # int32 vertexID + int32 sublistID
    w = int(free / 4.0 / (bytes_per_candidate * expansion))
    return int(np.clip(w, 256, 1 << 20))


def split_windows(
    sublist: np.ndarray, window_size: int
) -> List[Tuple[int, int]]:
    """Split a 2-clique list into windows snapped to sublist boundaries.

    ``sublist`` is the root node's ``sublistID`` array (source
    vertices); a boundary is any index where the value changes. Each
    window ends at the boundary nearest its nominal end, always making
    progress (at least one sublist per window).
    """
    n = sublist.size
    if n == 0:
        return []
    change = np.flatnonzero(sublist[1:] != sublist[:-1]) + 1
    boundaries = np.concatenate([change, [n]])
    windows: List[Tuple[int, int]] = []
    start = 0
    while start < n:
        nominal = start + window_size
        if nominal >= n:
            windows.append((start, n))
            break
        # the boundary closest to the nominal end, but beyond the start
        i = int(np.searchsorted(boundaries, nominal))
        if i == boundaries.size:
            end = n
        elif i > 0 and boundaries[i - 1] > start and (
            nominal - boundaries[i - 1] <= boundaries[i] - nominal
        ):
            end = int(boundaries[i - 1])
        else:
            end = int(boundaries[i])
        windows.append((start, end))
        start = end
    return windows


def order_groups(
    src: np.ndarray,
    dst: np.ndarray,
    degrees: np.ndarray,
    order: WindowOrder,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reorder whole sublists (source groups) for the window sweep."""
    if order is WindowOrder.NATURAL or src.size == 0:
        return src, dst
    counts = np.bincount(src, minlength=degrees.size)
    sources = np.flatnonzero(counts)
    key = degrees[sources]
    perm = np.argsort(key if order is WindowOrder.ASC_DEGREE else -key, kind="stable")
    sources = sources[perm]
    # gather each group's slice in the new source order
    starts = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    idx = run_positions(starts[sources], counts[sources])
    return src[idx], dst[idx]


def split_range(src: np.ndarray, a: int, b: int):
    """Split [a, b) at the sublist boundary nearest its midpoint.

    Returns ``None`` when the range is a single sublist (cannot be
    split without breaking a candidate's suffix).
    """
    seg = src[a:b]
    change = np.flatnonzero(seg[1:] != seg[:-1]) + 1
    if change.size == 0:
        return None
    mid = seg.size // 2
    cut = int(change[np.argmin(np.abs(change - mid))])
    return [(a, a + cut), (a + cut, b)]


def window_sweep(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    omega_bar: int,
    heuristic_clique: np.ndarray,
    device: Device,
    window_size: Union[int, str],
    fanout: int = 1,
    window_order: WindowOrder = WindowOrder.NATURAL,
    chunk_pairs: int = 1 << 22,
    early_exit_heuristic: bool = False,
    deadline: Union[None, float, Deadline] = None,
    adaptive: bool = False,
    checkpoint: Optional[SearchCheckpoint] = None,
    checkpoint_sink: Optional[Callable[[SearchCheckpoint], None]] = None,
    label: str = "windowed search",
    kind: Optional[ProblemKind] = None,
) -> WindowedOutcome:
    """Run the windowed search over a prepared 2-clique list.

    Returns the single best clique found across all windows (at least
    the heuristic clique). The sweep takes ``fanout`` windows at a
    time: ``fanout=1`` runs each window alone on the isolated launch
    schedule and supports the early exit, adaptive splitting and
    checkpoint/resume; ``fanout>1`` advances each group of windows
    together on the fused schedule (merged kernel launches, shared
    group-start ω̄ bound -- paper Section V-C3), which supports none
    of them.

    With ``adaptive=True`` (the recursive-windowing extension), a
    window whose subtree exceeds device memory is split in half at a
    sublist boundary and each half is retried, recursively, down to
    single sublists. Only a single sublist whose own subtree exceeds
    the budget still raises :class:`~repro.errors.DeviceOOMError`.

    Checkpoint/resume: with a ``checkpoint`` the sweep skips its
    completed windows and resumes from the checkpoint's pending ranges
    with its best clique as the ω̄ floor (the caller must have
    verified graph/config identity -- ranges index the *ordered*
    2-clique list). ``checkpoint_sink`` is called with a fresh
    :class:`~repro.core.checkpoint.SearchCheckpoint` after every
    completed window (fingerprints left empty at this layer); a
    :class:`~repro.errors.DeviceLostError` escaping a window carries
    the latest state in its ``checkpoint`` attribute, with the
    interrupted window first in ``pending``.
    """
    if kind is None:
        kind = MAX_CLIQUE
    if fanout < 1:
        raise ValueError("fanout must be at least 1")
    checkpointing = checkpoint is not None or checkpoint_sink is not None
    if fanout > 1 and (adaptive or early_exit_heuristic or checkpointing):
        raise ValueError(
            "the early exit, adaptive splitting and checkpoint/resume "
            "require fanout == 1"
        )
    if not kind.prunes and checkpointing:
        # a windows-done checkpoint does not describe the kind's
        # accumulated state; resuming from one would silently drop
        # every count/clique harvested before the interruption
        raise ValueError(
            f"checkpoint/resume is not defined for problem kind {kind.name!r}"
        )
    if isinstance(window_size, str):
        window_size = auto_window_size(graph, device, src.size)
    ddl = as_deadline(deadline, label)
    fused = fanout > 1

    src, dst = order_groups(src, dst, graph.degrees, window_order)
    driver = LevelDriver(graph, device, chunk_pairs=chunk_pairs, deadline=ddl)

    best_clique = np.asarray(heuristic_clique, dtype=np.int32)
    best = int(best_clique.size) if best_clique.size else max(omega_bar, 0)
    outcome = WindowedOutcome(
        best_clique=best_clique, omega=best, state=kind.new_state()
    )

    # LIFO work list so adaptive splits are processed depth-first
    if checkpoint is not None:
        pending = list(reversed(checkpoint.pending))
        done = checkpoint.windows_done
        total_windows = checkpoint.total_windows
        if checkpoint.omega > best:
            best = checkpoint.omega
            best_clique = np.asarray(checkpoint.best_clique, dtype=np.int32)
    else:
        pending = list(reversed(split_windows(src, window_size)))
        done = 0
        total_windows = len(pending)

    def snapshot(interrupted: Optional[Tuple[int, int]] = None) -> SearchCheckpoint:
        remaining = list(reversed(pending))
        if interrupted is not None:
            remaining.insert(0, interrupted)
        return SearchCheckpoint(
            omega=best,
            best_clique=[int(v) for v in np.asarray(best_clique).tolist()],
            pending=remaining,
            windows_done=done,
            total_windows=total_windows,
        )

    while pending:
        group = [pending.pop() for _ in range(min(fanout, len(pending)))]
        ddl.check(f"window {done}")
        device.pool.reset_peak()
        base = device.pool.in_use_bytes
        bar = max(omega_bar, best)  # shared bound, fixed for the group
        try:
            lanes = driver.run(
                [(src[a:b], dst[a:b]) for a, b in group], bar,
                fused=fused, early_exit_heuristic=early_exit_heuristic,
                kind=kind,
            )
        except DeviceOOMError:
            halves = split_range(src, *group[0]) if adaptive else None
            if halves is None:
                raise  # a single sublist's subtree exceeds the budget
            outcome.adaptive_splits += 1
            total_windows += 1  # one window became two
            pending.extend(reversed(halves))
            continue
        except DeviceLostError as exc:
            if not fused and kind.prunes:
                exc.checkpoint = snapshot(interrupted=group[0])
            raise
        try:
            for lane in lanes:
                if lane.omega > best and lane.clique_list.nodes:
                    best = lane.omega
                    best_clique = lane.clique_list.read_cliques(limit=1)[0]
                merge_state(outcome.state, lane.state)
                outcome.candidates_stored += lane.candidates_stored
                outcome.candidates_pruned += lane.candidates_pruned
                outcome.stopped_by_heuristic |= lane.stopped_by_heuristic
            peak = device.pool.peak_bytes - base  # shared by the group
            outcome.peak_window_bytes = max(outcome.peak_window_bytes, peak)
            for (a, b), lane in zip(group, lanes):
                outcome.windows.append(
                    WindowStats(
                        index=done,
                        start=a,
                        end=b,
                        peak_bytes=peak,
                        best_clique_size=best,
                        levels=len(lane.levels),
                    )
                )
                done += 1
            # level-major, lane-minor: the merged launches' timeline
            outcome.levels.extend(
                sorted(
                    (s for lane in lanes for s in lane.levels),
                    key=attrgetter("level"),
                )
            )
        finally:
            for lane in lanes:
                lane.clique_list.free_all()
        if checkpoint_sink is not None:
            checkpoint_sink(snapshot())

    outcome.best_clique = np.asarray(best_clique, dtype=np.int32)
    outcome.omega = best
    return outcome
