"""Build and preprocess CSR graphs from raw edge lists.

Mirrors the paper's preprocessing pipeline (Section V): every input is
made undirected, self loops are removed, duplicate edges are merged,
and vertex indices can be randomised to remove ordering bias before
the index/degree sorting comparisons.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import GraphFormatError
from .csr import CSRGraph

__all__ = [
    "from_edge_list",
    "from_edge_array",
    "from_adjacency",
    "relabel_random",
    "splice_edges",
    "induced_subgraph",
    "graph_union",
]

EdgePair = Tuple[int, int]


def from_edge_list(
    edges: Sequence[EdgePair],
    num_vertices: Optional[int] = None,
) -> CSRGraph:
    """Build a CSR graph from an iterable of ``(u, v)`` pairs.

    The result is undirected and simple: each pair is mirrored, self
    loops are dropped, duplicates merged.
    """
    arr = np.asarray(list(edges), dtype=np.int64)
    if arr.size == 0:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
    else:
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError("edges must be (u, v) pairs")
        src, dst = arr[:, 0], arr[:, 1]
    return from_edge_array(src, dst, num_vertices)


def from_edge_array(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: Optional[int] = None,
) -> CSRGraph:
    """Build a CSR graph from parallel endpoint arrays (vectorised).

    Parameters
    ----------
    src, dst:
        Equal-length integer arrays; interpreted as undirected edges.
    num_vertices:
        Vertex count; inferred as ``max(id) + 1`` when omitted.
    """
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise GraphFormatError("src and dst must have the same length")
    if src.size and (src.min() < 0 or dst.min() < 0):
        raise GraphFormatError("vertex ids must be non-negative")
    if num_vertices is None:
        num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    n = int(num_vertices)
    if src.size and max(int(src.max()), int(dst.max())) >= n:
        raise GraphFormatError("vertex id exceeds num_vertices")
    if n > np.iinfo(np.int32).max:
        raise GraphFormatError("graphs beyond int32 vertex ids are unsupported")

    keep = src != dst  # drop self loops
    src, dst = src[keep], dst[keep]
    # mirror, deduplicate via sorted global keys
    a = np.concatenate([src, dst])
    b = np.concatenate([dst, src])
    keys = np.unique(a * n + b)
    rows = (keys // n).astype(np.int64)
    cols = (keys % n).astype(np.int32)
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_offsets[1:])
    return CSRGraph(row_offsets, cols, validate=False)


def from_adjacency(adj: Sequence[Sequence[int]]) -> CSRGraph:
    """Build a CSR graph from an adjacency-list-of-lists."""
    src = []
    dst = []
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            src.append(u)
            dst.append(v)
    return from_edge_array(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        num_vertices=len(adj),
    )


def relabel_random(
    graph: CSRGraph, seed: Union[int, np.random.Generator] = 0
) -> CSRGraph:
    """Randomise vertex indices (paper, Section V).

    Removes any bias from the dataset's original vertex ordering so
    index-vs-degree sorting comparisons are fair.
    """
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    perm = rng.permutation(n).astype(np.int64)
    src, dst = graph.to_edge_list()
    return from_edge_array(perm[src], perm[dst], num_vertices=n)


def graph_union(*graphs: CSRGraph) -> CSRGraph:
    """Union of edge sets over a shared vertex id space.

    Used to compose structural regimes -- e.g. an R-MAT hub backbone
    plus embedded team cliques models the clustered link structure of
    real web graphs far better than bare R-MAT (which is almost
    clique-free).
    """
    if not graphs:
        raise ValueError("graph_union needs at least one graph")
    n = max(g.num_vertices for g in graphs)
    srcs = []
    dsts = []
    for g in graphs:
        s, d = g.to_edge_list()
        srcs.append(s.astype(np.int64))
        dsts.append(d.astype(np.int64))
    return from_edge_array(
        np.concatenate(srcs), np.concatenate(dsts), num_vertices=n
    )


def _pair_keys(pairs: Iterable[EdgePair], n: int) -> np.ndarray:
    """Sorted ``row * n + col`` keys of undirected pairs, both directions."""
    arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise GraphFormatError(f"vertex id outside [0, {n})")
    if np.any(arr[:, 0] == arr[:, 1]):
        raise GraphFormatError("self loops are not allowed")
    u, v = arr[:, 0], arr[:, 1]
    return np.unique(np.concatenate([u * n + v, v * n + u]))


def splice_edges(
    base: CSRGraph,
    inserted: Iterable[EdgePair],
    deleted: Iterable[EdgePair],
    num_vertices: int,
) -> CSRGraph:
    """``base`` minus ``deleted`` plus ``inserted``, over ``num_vertices``.

    Byte-identical to :func:`from_edge_array` on the resulting edge set
    and vertex count, but derived from ``base.edge_keys`` instead of a
    sort of the whole graph. The deleted keys are cut out and the
    inserted keys put in at their ``searchsorted`` positions, and
    ``col_indices`` is spliced at the same positions; each row's start
    is the ``searchsorted`` position of its first possible key. Only
    when ``num_vertices`` differs from the base's is every edge
    re-keyed. The spliced keys become the result's ``edge_keys``, so
    the next splice from it needs no key rebuild.

    Every deleted pair must be an edge of ``base`` and no inserted pair
    may be one (:class:`~repro.errors.GraphFormatError` otherwise).
    Deleted pairs are keyed in the base's own universe, before any
    re-key: a deleted edge may touch a vertex past a smaller
    ``num_vertices`` (a rolled-back universe), and keyed in that
    smaller universe its key would name a different edge.
    """
    n0 = base.num_vertices
    n = int(num_vertices)
    if n > np.iinfo(np.int32).max:
        raise GraphFormatError("graphs beyond int32 vertex ids are unsupported")
    keys = base.edge_keys
    cols = base.col_indices
    gone = _pair_keys(deleted, n0)
    if gone.size:
        at = np.searchsorted(keys, gone)
        if at[-1] >= keys.size or np.any(keys[at] != gone):
            raise GraphFormatError("a deleted edge is not in the base graph")
        keys = np.delete(keys, at)
        cols = np.delete(cols, at)
    if n != n0 and keys.size:
        if n < n0 and (keys[-1] // n0 >= n or cols.max() >= n):
            raise GraphFormatError("an edge outlives the shrunk vertex universe")
        keys = keys // n0 * n + cols
    new = _pair_keys(inserted, n)
    if new.size:
        at = np.searchsorted(keys, new)
        hit = at < keys.size
        if np.any(keys[at[hit]] == new[hit]):
            raise GraphFormatError("an inserted edge is already in the base graph")
        keys = np.insert(keys, at, new)
        cols = np.insert(cols, at, (new % n).astype(np.int32))
    # row r's keys are the ones in [r*n, (r+1)*n)
    row_offsets = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return CSRGraph(row_offsets, cols, validate=False, edge_keys=keys)


def induced_subgraph(
    graph: CSRGraph, vertices: np.ndarray
) -> Tuple[CSRGraph, np.ndarray]:
    """Vertex-induced subgraph with compacted ids.

    Returns ``(subgraph, original_ids)`` where ``original_ids[i]`` is
    the input-graph id of subgraph vertex ``i``.

    Gathers only the rows of ``vertices`` from the CSR and maps their
    columns through a local id table, dropping neighbours outside the
    set. The map is monotone, so each row stays sorted and the CSR is
    built directly, byte-identical to :func:`from_edge_array` on the
    induced edges. Besides filling the O(|V|) id table, the cost is
    O(sum of the set's degrees), not a pass over every edge.
    """
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    n = graph.num_vertices
    k = vertices.size
    if k and (vertices[0] < 0 or vertices[-1] >= n):
        raise GraphFormatError(f"vertex id outside [0, {n})")
    local = np.full(n, -1, dtype=np.int32)
    local[vertices] = np.arange(k, dtype=np.int32)
    starts = graph.row_offsets[vertices]
    lengths = graph.row_offsets[vertices + 1] - starts
    # flat positions of the gathered rows: each row's run of columns
    first = np.cumsum(lengths) - lengths
    at = np.arange(int(lengths.sum())) + np.repeat(starts - first, lengths)
    cols = local[graph.col_indices[at]]
    keep = cols >= 0
    rows = np.repeat(np.arange(k), lengths)[keep]
    row_offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=k), out=row_offsets[1:])
    return CSRGraph(row_offsets, cols[keep], validate=False), vertices
