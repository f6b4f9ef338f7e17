"""Host-side kernel passes of the breadth-first level loop.

These are the vectorised bodies of the paper's two per-level kernels
(CountCliques and OutputNewCliques, Algorithm 2) plus the pair-chunk
machinery that bounds host memory while materialising the per-thread
inner loops. They contain *no* device accounting -- the
:class:`~repro.engine.driver.LevelDriver` charges the launches --
which is what lets one pass implementation serve both the isolated
(one search) and fused (merged concurrent-window) launch schedules.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "chunk_slices",
    "expand_pairs",
    "count_pass",
    "output_pass",
    "run_boundaries_host",
]


def chunk_slices(tail: np.ndarray, chunk_pairs: int):
    """Split thread ranges so each slice covers <= chunk_pairs pairs."""
    csum = np.cumsum(tail)
    total = int(csum[-1]) if csum.size else 0
    if total == 0:
        return
    start = 0
    n = tail.size
    while start < n:
        base = int(csum[start - 1]) if start else 0
        # furthest thread whose cumulative pair count stays in budget
        stop = int(np.searchsorted(csum, base + chunk_pairs, side="right"))
        if stop <= start:  # single thread exceeding the budget: take it alone
            stop = start + 1
        yield start, stop
        start = stop


def expand_pairs(tail_slice: np.ndarray, start: int):
    """Flat (idx1, idx2) pair arrays for threads [start, start+len)."""
    total = int(tail_slice.sum())
    reps = tail_slice.astype(np.int64)
    idx1 = start + np.repeat(np.arange(tail_slice.size, dtype=np.int64), reps)
    ends = np.cumsum(reps)
    starts = ends - reps
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, reps)
    idx2 = idx1 + 1 + within
    return idx1, idx2


def count_pass(
    graph: CSRGraph, vertex: np.ndarray, tail: np.ndarray, chunk_pairs: int
) -> np.ndarray:
    """Per-thread successful-lookup counts (CountCliques)."""
    n = tail.size
    counts = np.zeros(n, dtype=np.int64)
    for start, stop in chunk_slices(tail, chunk_pairs):
        idx1, idx2 = expand_pairs(tail[start:stop], start)
        found = graph.batch_has_edge(vertex[idx1], vertex[idx2])
        if found.any():
            counts[start:stop] += np.bincount(
                idx1[found] - start, minlength=stop - start
            )
    return counts


def output_pass(
    graph: CSRGraph,
    vertex: np.ndarray,
    tail: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    new_vertex: np.ndarray,
    new_sublist: np.ndarray,
    chunk_pairs: int,
) -> None:
    """Write surviving candidates into the new node (OutputNewCliques)."""
    live = counts > 0
    for start, stop in chunk_slices(tail, chunk_pairs):
        idx1, idx2 = expand_pairs(tail[start:stop], start)
        # pruned threads (count zeroed) write nothing
        keep = live[idx1]
        idx1, idx2 = idx1[keep], idx2[keep]
        if idx1.size == 0:
            continue
        found = graph.batch_has_edge(vertex[idx1], vertex[idx2])
        f1 = idx1[found]
        f2 = idx2[found]
        # output position: thread offset + rank among the thread's hits
        # (f1 is non-decreasing, so ranks come from run starts)
        if f1.size:
            run_start = np.flatnonzero(
                np.concatenate(([True], f1[1:] != f1[:-1]))
            )
            run_len = np.diff(np.concatenate([run_start, [f1.size]]))
            rank = np.arange(f1.size, dtype=np.int64) - np.repeat(
                run_start, run_len
            )
            pos = offsets[f1] + rank
            new_vertex[pos] = vertex[f2]
            new_sublist[pos] = f1.astype(np.int32)


def run_boundaries_host(values: np.ndarray) -> np.ndarray:
    """Run boundaries without device accounting (charged by the driver)."""
    n = values.size
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return np.concatenate([starts, [n]]).astype(np.int64)
