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
    "pair_partners",
    "count_pass",
    "output_pass",
    "run_boundaries",
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


def pair_partners(threads: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Second members of the pairs of ``threads``, flat and in order.

    Thread ``i`` with ``r`` pairs pairs with threads ``i+1 .. i+r``.
    """
    # pair p of a thread whose first pair is `first` has partner
    # p + i + 1 - first
    first = np.cumsum(reps) - reps
    idx2 = np.repeat(threads + 1 - first, reps)
    idx2 += np.arange(idx2.size, dtype=np.int64)
    return idx2


def _thread_hits(found: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Per-thread sums of ``found``, each thread owning ``reps`` pairs."""
    hits = np.zeros(reps.size, dtype=np.int64)
    busy = np.flatnonzero(reps)
    if busy.size:
        first = np.cumsum(reps) - reps
        hits[busy] = np.add.reduceat(found, first[busy], dtype=np.int64)
    return hits


def count_pass(
    graph: CSRGraph, vertex: np.ndarray, tail: np.ndarray, chunk_pairs: int
) -> np.ndarray:
    """Per-thread successful-lookup counts (CountCliques)."""
    counts = np.zeros(tail.size, dtype=np.int64)
    for start, stop in chunk_slices(tail, chunk_pairs):
        reps = tail[start:stop]
        idx2 = pair_partners(np.arange(start, stop, dtype=np.int64), reps)
        u = np.repeat(vertex[start:stop], reps)
        found = graph.batch_has_edge(u, vertex[idx2])
        counts[start:stop] = _thread_hits(found, reps)
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
    # pruned threads (count zeroed) expand no pairs and write nothing
    live = np.flatnonzero(counts > 0)
    live_tail = tail[live]
    for a, b in chunk_slices(live_tail, chunk_pairs):
        threads, reps = live[a:b], live_tail[a:b]
        idx2 = pair_partners(threads, reps)
        u = np.repeat(vertex[threads], reps)
        found = graph.batch_has_edge(u, vertex[idx2])
        # the hits come grouped by thread, in order: thread i's rank-r
        # hit goes to offsets[i] + r
        hits = _thread_hits(found, reps)
        pos = np.repeat(offsets[threads] - (np.cumsum(hits) - hits), hits)
        pos += np.arange(pos.size, dtype=np.int64)
        new_vertex[pos] = vertex[idx2[found]]
        new_sublist[pos] = np.repeat(threads.astype(np.int32), hits)


def run_boundaries(values: np.ndarray) -> np.ndarray:
    """Offsets (length ``num_runs + 1``) of maximal runs of equal values.

    Recovers sublist boundaries from a clique-list node's ``sublistID``
    array: each sublist is a maximal run of equal parent indices
    (Section IV-B).
    """
    n = values.size
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return np.concatenate([starts, [n]]).astype(np.int64)
