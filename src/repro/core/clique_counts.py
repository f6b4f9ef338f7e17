"""k-clique counting via the breadth-first machinery.

A pleasant corollary of the paper's design: with pruning disabled
(ω̄ = 2), the breadth-first expansion enumerates *every* clique of
every size exactly once, so the per-level candidate counts are the
graph's k-clique profile (#edges, #triangles, #K4, ...). This module
exposes that as a public API -- useful on its own (k-clique counting
is a standard kernel in dense-subgraph mining) and as the exact
ground truth for memory-planning heuristics like
:func:`repro.core.windowed.auto_window_size`.

Memory note: the full profile needs the same candidate storage as an
unpruned search; pass a roomy device, a ``max_k`` cutoff, or accept
:class:`~repro.errors.DeviceOOMError` on dense graphs -- exactly the
constraint the paper's Section II-D describes.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..graph.csr import CSRGraph
from ..gpusim.device import Device
from ..gpusim.spec import DeviceSpec
from .config import SublistOrder
from .setup import build_two_clique_list

__all__ = ["clique_profile", "count_k_cliques"]

MIB = 1 << 20


def clique_profile(
    graph: CSRGraph,
    device: Optional[Device] = None,
    max_k: Optional[int] = None,
    chunk_pairs: int = 1 << 22,
) -> Dict[int, int]:
    """Exact number of k-cliques for every k (or up to ``max_k``).

    Returns a dict ``{1: |V|, 2: |E|, 3: #triangles, ...}`` ending at
    the clique number (or ``max_k``).

    >>> from repro.graph import generators
    >>> clique_profile(generators.complete_graph(4))
    {1: 4, 2: 6, 3: 4, 4: 1}
    """
    if device is None:
        device = Device(DeviceSpec(memory_bytes=2048 * MIB))
    profile: Dict[int, int] = {}
    if graph.num_vertices == 0:
        return profile
    profile[1] = graph.num_vertices
    if graph.num_edges == 0 or (max_k is not None and max_k <= 1):
        return profile
    profile[2] = graph.num_edges

    # an unpruned breadth-first expansion (omega_bar = 2 prunes nothing)
    src, dst, _ = build_two_clique_list(
        graph, 2, device, sublist_order=SublistOrder.INDEX
    )
    from .bfs import bfs_search

    if max_k is not None and max_k <= 2:
        return profile

    outcome = bfs_search(
        graph, src, dst, 2, device, chunk_pairs=chunk_pairs
    )
    try:
        for node in outcome.clique_list.nodes[1:]:
            k = node.level
            if max_k is not None and k > max_k:
                break
            profile[k] = node.size
    finally:
        outcome.clique_list.free_all()
    return profile


def count_k_cliques(
    graph: CSRGraph,
    k: int,
    device: Optional[Device] = None,
    chunk_pairs: int = 1 << 22,
) -> int:
    """Exact count of k-cliques (0 when k exceeds the clique number)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    profile = clique_profile(
        graph, device=device, max_k=k, chunk_pairs=chunk_pairs
    )
    return profile.get(k, 0)
