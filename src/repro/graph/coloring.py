"""Greedy graph colouring.

Colouring appears in the paper twice: as the tighter set upper bound
alternative to ``|C| + |P|`` (Section II-B3) and inside the PMC
baseline's branch-and-bound (Rossi et al. use a greedy colouring of
the candidate set to bound the best completion of a branch). The
number of colours used on a vertex set upper-bounds the largest clique
inside it, since a clique needs pairwise-distinct colours.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .csr import CSRGraph

__all__ = ["greedy_coloring", "coloring_upper_bound", "degeneracy_order"]


def degeneracy_order(graph: CSRGraph) -> np.ndarray:
    """Vertices in degeneracy (smallest-last) order.

    Greedy colouring in this order uses at most ``degeneracy + 1``
    colours, matching the k-core clique bound.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    deg = graph.degrees.astype(np.int64).copy()
    # Matula-Beck bucket queue: vertices sorted by degree with O(1)
    # decrease-key via position swaps -- O(V + E) total.
    vert = np.argsort(deg, kind="stable").astype(np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[vert] = np.arange(n)
    md = int(deg.max())
    bin_start = np.zeros(md + 2, dtype=np.int64)
    np.cumsum(np.bincount(deg, minlength=md + 1), out=bin_start[1:])
    cur_bin = bin_start[:-1].copy()
    col = graph.col_indices
    ro = graph.row_offsets
    for i in range(n):
        v = int(vert[i])
        dv = int(deg[v])
        for u in col[ro[v] : ro[v + 1]].tolist():
            du = int(deg[u])
            if du <= dv:  # removed, or already at the peel level
                continue
            pu = int(pos[u])
            pw = int(cur_bin[du])
            w = int(vert[pw])
            if u != w:
                vert[pu], vert[pw] = w, u
                pos[u], pos[w] = pw, pu
            cur_bin[du] = pw + 1
            deg[u] = du - 1
    return vert[::-1].copy()  # highest-core vertices first


def greedy_coloring(
    graph: CSRGraph, order: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, int]:
    """Greedy colouring along ``order`` (default: descending degree).

    Returns ``(colors, num_colors)`` with colours in ``[0,
    num_colors)`` and no two adjacent vertices sharing a colour.
    """
    n = graph.num_vertices
    if order is None:
        order = np.argsort(-graph.degrees, kind="stable")
    colors = np.full(n, -1, dtype=np.int64)
    num_colors = 0
    for v in order.tolist():
        used = colors[graph.neighbors(v)]
        used = used[used >= 0]
        if used.size == 0:
            c = 0
        else:
            seen = np.zeros(num_colors + 1, dtype=bool)
            seen[used] = True
            free = np.flatnonzero(~seen)
            c = int(free[0])
        colors[v] = c
        if c >= num_colors:
            num_colors = c + 1
    return colors, num_colors


def coloring_upper_bound(graph: CSRGraph, use_degeneracy_order: bool = True) -> int:
    """Upper bound on the clique number via greedy colouring."""
    if graph.num_vertices == 0:
        return 0
    order = degeneracy_order(graph) if use_degeneracy_order else None
    _, k = greedy_coloring(graph, order)
    return k
