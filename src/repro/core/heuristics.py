"""Greedy lower-bound heuristics (paper Section IV-A, Algorithm 1).

Both variants implement the same greedy rule -- repeatedly add the
remaining candidate with the highest rank (degree or core number) and
filter out non-neighbours -- expressed entirely in data-parallel
primitives:

* **single run** starts from the globally highest-ranked vertex and
  filters the full vertex list with one parallel select per step;
* **multi run** (Algorithm 1) runs ``h`` instances at once, one
  segment per seed vertex, using segmented-max to pick each segment's
  next vertex and select/scan to compact survivors. ω̄ is the number
  of iterations until every segment empties, i.e. the best greedy
  clique across all ``h`` starts.

The returned lower bound ω̄ drives all pruning in the exact search;
the clique itself is also returned so callers can report it and so
the windowed search can start from a concrete incumbent.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from ..gpusim import primitives as P
from ..gpusim.device import Device
from ..graph.build import run_positions
from ..graph.csr import CSRGraph
from ..graph.kcore import core_numbers
from .config import Heuristic
from .result import HeuristicReport

__all__ = ["run_heuristic", "single_run_greedy", "multi_run_greedy"]


def run_heuristic(
    graph: CSRGraph,
    kind: Heuristic,
    device: Device,
    h: Optional[int] = None,
    ranks: Optional[np.ndarray] = None,
) -> HeuristicReport:
    """Run the configured heuristic and report ω̄.

    Parameters
    ----------
    graph:
        Input graph.
    kind:
        Heuristic variant; :attr:`Heuristic.NONE` reports the trivial
        bound (1 for non-empty graphs, 2 when any edge exists is left
        to the search itself, matching the paper's no-heuristic runs).
    device:
        Device charged for the k-core decomposition (if needed) and
        all heuristic kernels.
    h:
        Seed count for multi-run variants; defaults to ``|V|``.
    ranks:
        Pre-computed rank values (degrees or core numbers); computed
        on demand when omitted.
    """
    t0 = time.perf_counter()
    m0 = device.model_time_s
    n = graph.num_vertices
    if kind is Heuristic.NONE or n == 0:
        lb = 1 if n else 0
        return HeuristicReport(
            kind=kind.value, lower_bound=lb, clique=np.zeros(0, dtype=np.int32)
        )
    if ranks is None:
        if kind.uses_core_numbers:
            ranks = core_numbers(graph, device)
        else:
            ranks = graph.degrees
    ranks = np.asarray(ranks, dtype=np.int64)
    if kind.is_multi_run:
        size, clique = multi_run_greedy(graph, ranks, device, h=h)
    else:
        size, clique = single_run_greedy(graph, ranks, device)
    return HeuristicReport(
        kind=kind.value,
        lower_bound=size,
        clique=clique,
        model_time_s=device.model_time_s - m0,
        wall_time_s=time.perf_counter() - t0,
    )


def single_run_greedy(
    graph: CSRGraph, ranks: np.ndarray, device: Device
) -> Tuple[int, np.ndarray]:
    """One greedy pass from the highest-ranked vertex.

    Returns ``(clique_size, clique_vertices)``.
    """
    n = graph.num_vertices
    if n == 0:
        return 0, np.zeros(0, dtype=np.int32)
    # sort all vertices by descending rank on the device
    _, candidates = P.radix_sort_pairs(
        device, ranks, np.arange(n, dtype=np.int64), descending=True
    )
    cand = device.from_host(candidates.astype(np.int32), label="heur.cand")
    clique: List[int] = []
    try:
        while cand.size:
            v = int(cand.a[0])
            clique.append(v)
            rest = cand.a[1:]
            flags = graph.batch_has_edge(
                np.full(rest.size, v, dtype=np.int64), rest, device
            )
            survivors = P.select_flagged(device, rest, flags)
            nxt = device.from_host(survivors, label="heur.cand")
            cand.free()
            cand = nxt
    finally:
        cand.free()
    return len(clique), np.asarray(clique, dtype=np.int32)


def multi_run_greedy(
    graph: CSRGraph,
    ranks: np.ndarray,
    device: Device,
    h: Optional[int] = None,
) -> Tuple[int, np.ndarray]:
    """Algorithm 1: ``h`` parallel greedy runs, one segment per seed.

    Returns ``(clique_size, clique_vertices)`` for the best run.
    """
    n = graph.num_vertices
    if n == 0:
        return 0, np.zeros(0, dtype=np.int32)
    if h is None:
        h = n
    h = min(h, n)

    # seeds: the h highest-ranked vertices
    _, order = P.radix_sort_pairs(
        device, ranks, np.arange(n, dtype=np.int64), descending=True
    )
    seeds = order[:h]

    # GetNeighborCounts + scan: one segment per seed
    deg = graph.degrees
    counts = deg[seeds]
    device.launch(1.0, n_threads=h, name="get_neighbor_counts")
    starts, total = P.exclusive_scan(device, counts)
    seg_offsets = np.concatenate([starts, [total]]).astype(np.int64)

    # SetupNeighborThresholds: gather each seed's neighbours + ranks
    gather_idx = run_positions(graph.row_offsets[seeds], counts)
    device.launch(counts.astype(np.float64) + 1.0, name="setup_neighbor_thresholds")
    neighbors_h = graph.col_indices[gather_idx].astype(np.int32)
    thresholds_h = ranks[neighbors_h].astype(np.int32)

    # drop initially empty segments (isolated seeds)
    keep = counts > 0
    seg_ids = np.flatnonzero(keep).astype(np.int64)
    if seg_ids.size != h:
        counts = counts[keep]
        starts, total = P.exclusive_scan(device, counts)
        seg_offsets = np.concatenate([starts, [total]]).astype(np.int64)

    neighbors = device.from_host(neighbors_h, label="heur.neighbors")
    thresholds = device.from_host(thresholds_h, label="heur.thresholds")

    omega = 1
    # chain log: (alive segment ids, chosen vertex per segment) per step
    chain: List[Tuple[np.ndarray, np.ndarray]] = []
    try:
        while total > 0:
            nb = neighbors.a
            th = thresholds.a
            seg_lengths = np.diff(seg_offsets)
            max_idx = P.segmented_argmax(device, th, seg_offsets)
            chosen = nb[max_idx].astype(np.int64)
            chain.append((seg_ids, chosen))
            omega += 1
            # CheckConnections: flag neighbours connected to the chosen
            # vertex (the chosen vertex itself is not its own neighbour,
            # so it drops out of the candidate set)
            per_elem_chosen = np.repeat(chosen, seg_lengths)
            flags = graph.batch_has_edge(per_elem_chosen, nb.astype(np.int64), device)
            new_counts = P.segmented_sum(device, flags.astype(np.int64), seg_offsets)
            nb2 = P.select_flagged(device, nb, flags)
            th2 = P.select_flagged(device, th, flags)
            nxt_nb = device.from_host(nb2, label="heur.neighbors")
            nxt_th = device.from_host(th2, label="heur.thresholds")
            neighbors.free()
            thresholds.free()
            neighbors, thresholds = nxt_nb, nxt_th
            # remove empty segments, rebuild offsets
            alive = new_counts > 0
            seg_ids = P.select_flagged(device, seg_ids, alive)
            counts = new_counts[alive]
            starts, total = P.exclusive_scan(device, counts)
            seg_offsets = np.concatenate([starts, [total]]).astype(np.int64)
    finally:
        neighbors.free()
        thresholds.free()

    clique = _reconstruct_chain(seeds, chain)
    return omega, clique


def _reconstruct_chain(
    seeds: np.ndarray, chain: List[Tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Clique vertices of the longest-surviving greedy run."""
    if not chain:
        return np.asarray([seeds[0]], dtype=np.int32)
    winner = int(chain[-1][0][0])  # alive through the final iteration
    verts = [int(seeds[winner])]
    for seg_ids, chosen in chain:
        pos = np.searchsorted(seg_ids, winner)
        verts.append(int(chosen[pos]))
    return np.asarray(verts, dtype=np.int32)
