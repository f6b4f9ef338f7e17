"""Data-parallel k-core decomposition on the simulated device.

The paper computes core numbers with Gunrock's k-core app and uses
them two ways: as a tighter per-vertex upper bound than degree
(``core(v) + 1`` bounds the largest clique containing ``v``,
Section II-B2) and as the greedy ordering key of the core-number
heuristics. We implement the standard iterative peeling algorithm as
rounds of data-parallel kernels: each round removes every remaining
vertex of degree <= k at once and decrements its neighbours' degrees
with a scatter-add, exactly the shape a GPU implementation takes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gpusim.device import Device
from .build import run_positions
from .csr import CSRGraph

__all__ = ["core_numbers", "degeneracy", "kcore_subgraph_vertices"]


def core_numbers(graph: CSRGraph, device: Optional[Device] = None) -> np.ndarray:
    """Core number of every vertex (``int64``).

    Parameters
    ----------
    graph:
        Input graph.
    device:
        Optional device to charge; each peel round is one kernel with
        per-thread cost equal to the peeled vertex's current degree.
    """
    n = graph.num_vertices
    deg = graph.degrees.astype(np.int64).copy()
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    remaining = n
    k = 0
    while remaining > 0:
        alive_deg = deg[alive]
        k = max(k, int(alive_deg.min()))
        while True:
            peel = np.flatnonzero(alive & (deg <= k))
            if peel.size == 0:
                break
            core[peel] = k
            alive[peel] = False
            remaining -= peel.size
            # gather the peeled vertices' neighbour lists (vectorised)
            counts = np.diff(graph.row_offsets)[peel]
            if device is not None:
                device.launch(
                    counts.astype(np.float64) + 1.0, name="kcore_peel"
                )
            total = int(counts.sum())
            if total:
                starts = graph.row_offsets[peel]
                nbrs = graph.col_indices[run_positions(starts, counts)]
                dec = np.bincount(nbrs[alive[nbrs]], minlength=n)
                deg -= dec
    return core


def degeneracy(graph: CSRGraph, device: Optional[Device] = None) -> int:
    """Graph degeneracy (the maximum core number).

    ``degeneracy + 1`` upper-bounds the clique number.
    """
    if graph.num_vertices == 0:
        return 0
    return int(core_numbers(graph, device).max())


def kcore_subgraph_vertices(
    graph: CSRGraph, k: int, device: Optional[Device] = None
) -> np.ndarray:
    """Vertices of the k-core (may be empty)."""
    core = core_numbers(graph, device)
    return np.flatnonzero(core >= k)
