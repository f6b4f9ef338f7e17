"""Vectorised synthetic graph generators.

The paper evaluates on 58 real-world Network Repository graphs across
six categories (social, web, road, biological, technological,
collaboration). With no network access, :mod:`repro.datasets` builds a
surrogate suite from the generators here, chosen so each category
reproduces the *structural regime* that drives the paper's results:

* ``caveman_social`` -- dense overlapping communities; average degree
  near or above the clique number (the paper's hard-to-prune Facebook
  graphs, Section V-B3c).
* ``rmat`` -- skewed web-like degree distributions with hubs.
* ``road_grid`` -- very low average degree, tiny cliques (the paper's
  best-case inputs).
* ``chung_lu_power_law`` -- heavy-tailed tech/bio topologies.
* ``team_collaboration`` -- unions of author-team cliques; low degree
  but large, easy-to-find maximum cliques.
* ``planted_clique`` / ``erdos_renyi`` -- controlled ω-vs-degree
  experiments and test oracles.

All generators are deterministic given ``seed`` and return undirected
simple :class:`~repro.graph.csr.CSRGraph` objects.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .build import from_edge_array
from .csr import CSRGraph

__all__ = [
    "erdos_renyi",
    "erdos_renyi_m",
    "chung_lu_power_law",
    "rmat",
    "planted_clique",
    "caveman_social",
    "road_grid",
    "team_collaboration",
    "complete_graph",
    "cycle_graph",
    "star_graph",
]

SeedLike = Union[int, np.random.Generator]


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# deterministic small graphs (test fixtures)
# ----------------------------------------------------------------------
def complete_graph(n: int) -> CSRGraph:
    """K_n."""
    iu = np.triu_indices(n, k=1)
    return from_edge_array(iu[0], iu[1], num_vertices=n)


def cycle_graph(n: int) -> CSRGraph:
    """C_n (n >= 3)."""
    if n < 3:
        raise ValueError("cycle_graph requires n >= 3")
    src = np.arange(n, dtype=np.int64)
    return from_edge_array(src, (src + 1) % n, num_vertices=n)


def star_graph(n_leaves: int) -> CSRGraph:
    """A star with one hub and ``n_leaves`` leaves."""
    src = np.zeros(n_leaves, dtype=np.int64)
    dst = np.arange(1, n_leaves + 1, dtype=np.int64)
    return from_edge_array(src, dst, num_vertices=n_leaves + 1)


# ----------------------------------------------------------------------
# random models
# ----------------------------------------------------------------------
def erdos_renyi(n: int, p: float, seed: SeedLike = 0) -> CSRGraph:
    """G(n, p). Dense sampling; intended for n up to a few thousand."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = _rng(seed)
    iu = np.triu_indices(n, k=1)
    mask = rng.random(iu[0].size) < p
    return from_edge_array(iu[0][mask], iu[1][mask], num_vertices=n)


def erdos_renyi_m(n: int, m: int, seed: SeedLike = 0) -> CSRGraph:
    """G(n, m)-style: approximately ``m`` distinct undirected edges."""
    rng = _rng(seed)
    if n < 2:
        return from_edge_array(np.zeros(0, np.int64), np.zeros(0, np.int64), n)
    # oversample to compensate for duplicates / self loops, then dedupe
    k = int(m * 1.15) + 16
    src = rng.integers(0, n, size=k, dtype=np.int64)
    dst = rng.integers(0, n, size=k, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keys = np.unique(lo * n + hi)[:m]
    return from_edge_array(keys // n, keys % n, num_vertices=n)


def chung_lu_power_law(
    n: int,
    avg_degree: float,
    exponent: float = 2.3,
    seed: SeedLike = 0,
    max_weight_frac: float = 0.1,
) -> CSRGraph:
    """Chung-Lu graph with power-law expected degrees.

    Produces the heavy-tailed degree distributions of tech/bio
    networks. Edge (u, v) appears with probability proportional to
    ``w_u * w_v`` where ``w_i ~ i^{-1/(exponent-1)}``.
    """
    if exponent <= 1.0:
        raise ValueError("exponent must exceed 1")
    rng = _rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-1.0 / (exponent - 1.0))
    w *= (avg_degree * n / 2.0) / w.sum()  # expected total weight = |E|
    w = np.minimum(w, max_weight_frac * n)
    total = w.sum()
    m_target = int(total)
    if m_target == 0:
        return from_edge_array(np.zeros(0, np.int64), np.zeros(0, np.int64), n)
    # sample endpoints proportionally to weights (efficient Chung-Lu)
    p = w / w.sum()
    k = int(m_target * 1.2) + 16
    src = rng.choice(n, size=k, p=p)
    dst = rng.choice(n, size=k, p=p)
    perm = rng.permutation(n)  # decorrelate id from weight rank
    return from_edge_array(perm[src], perm[dst], num_vertices=n)


def rmat(
    scale: int,
    edge_factor: int = 8,
    probs: Tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05),
    seed: SeedLike = 0,
) -> CSRGraph:
    """R-MAT recursive matrix graph (web-like, hub-heavy).

    ``2**scale`` vertices and roughly ``edge_factor * 2**scale``
    undirected edges (duplicates merged).
    """
    a, b, c, d = probs
    if not np.isclose(a + b + c + d, 1.0):
        raise ValueError("RMAT probabilities must sum to 1")
    rng = _rng(seed)
    n = 1 << scale
    m = edge_factor * n
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        right = (r >= a + c) | ((r >= a) & (r < a + b))  # quadrant b or d
        down = r >= a + b  # quadrant c or d
        src |= (down.astype(np.int64)) << bit
        dst |= (right.astype(np.int64)) << bit
    perm = rng.permutation(n)
    return from_edge_array(perm[src], perm[dst], num_vertices=n)


def planted_clique(
    n: int,
    clique_size: int,
    avg_degree: float,
    seed: SeedLike = 0,
) -> CSRGraph:
    """Sparse background graph with one planted clique.

    The clique members are random vertex ids; with ``avg_degree`` well
    below ``clique_size`` the planted clique is the unique maximum
    clique, giving a controlled ω-vs-degree knob for experiments.
    """
    if clique_size > n:
        raise ValueError("clique_size cannot exceed n")
    rng = _rng(seed)
    bg = int(avg_degree * n / 2)
    src = rng.integers(0, n, size=int(bg * 1.15) + 16, dtype=np.int64)
    dst = rng.integers(0, n, size=src.size, dtype=np.int64)
    members = rng.choice(n, size=clique_size, replace=False).astype(np.int64)
    iu = np.triu_indices(clique_size, k=1)
    src = np.concatenate([src, members[iu[0]]])
    dst = np.concatenate([dst, members[iu[1]]])
    return from_edge_array(src, dst, num_vertices=n)


def caveman_social(
    num_communities: int,
    community_size: int,
    p_in: float = 0.4,
    p_out_degree: float = 2.0,
    seed: SeedLike = 0,
) -> CSRGraph:
    """Relaxed-caveman social network.

    Dense intra-community blocks (edge probability ``p_in``) plus a
    sprinkling of inter-community edges (``p_out_degree`` expected per
    vertex). High average degree with clique number typically *below*
    the average degree -- the paper's hardest-to-prune regime.
    """
    rng = _rng(seed)
    n = num_communities * community_size
    srcs = []
    dsts = []
    iu = np.triu_indices(community_size, k=1)
    for c in range(num_communities):
        mask = rng.random(iu[0].size) < p_in
        base = c * community_size
        srcs.append(iu[0][mask] + base)
        dsts.append(iu[1][mask] + base)
    k = int(p_out_degree * n / 2)
    if k > 0:
        srcs.append(rng.integers(0, n, size=k, dtype=np.int64))
        dsts.append(rng.integers(0, n, size=k, dtype=np.int64))
    perm = rng.permutation(n)
    src = perm[np.concatenate(srcs).astype(np.int64)]
    dst = perm[np.concatenate(dsts).astype(np.int64)]
    return from_edge_array(src, dst, num_vertices=n)


def road_grid(
    width: int,
    height: int,
    diagonal_p: float = 0.05,
    rewire_p: float = 0.02,
    seed: SeedLike = 0,
) -> CSRGraph:
    """Road-network-like grid: average degree < 4, clique number <= 4.

    A ``width x height`` lattice with a small fraction of diagonal
    shortcuts (creating triangles/K4s, like real road intersections)
    and random long-range rewires.
    """
    rng = _rng(seed)
    n = width * height
    idx = np.arange(n, dtype=np.int64).reshape(height, width)
    srcs = [idx[:, :-1].ravel(), idx[:-1, :].ravel()]
    dsts = [idx[:, 1:].ravel(), idx[1:, :].ravel()]
    if diagonal_p > 0:
        cand_s = idx[:-1, :-1].ravel()
        cand_d = idx[1:, 1:].ravel()
        mask = rng.random(cand_s.size) < diagonal_p
        srcs.append(cand_s[mask])
        dsts.append(cand_d[mask])
        # opposite diagonal closes K4s occasionally
        cand_s2 = idx[:-1, 1:].ravel()
        cand_d2 = idx[1:, :-1].ravel()
        mask2 = rng.random(cand_s2.size) < diagonal_p / 2
        srcs.append(cand_s2[mask2])
        dsts.append(cand_d2[mask2])
    k = int(rewire_p * n)
    if k > 0:
        srcs.append(rng.integers(0, n, size=k, dtype=np.int64))
        dsts.append(rng.integers(0, n, size=k, dtype=np.int64))
    return from_edge_array(
        np.concatenate(srcs), np.concatenate(dsts), num_vertices=n
    )


def team_collaboration(
    n: int,
    num_teams: int,
    team_size_range: Tuple[int, int] = (2, 9),
    size_exponent: float = 2.0,
    seed: SeedLike = 0,
) -> CSRGraph:
    """Union of author-team cliques (collaboration networks).

    Each team is a clique over a random vertex subset; team sizes
    follow a truncated power law. Maximum cliques come from the
    largest teams, so ω is well above the (low) average degree -- the
    easy-to-prune regime where the paper's approach shines.
    """
    rng = _rng(seed)
    lo, hi = team_size_range
    if lo < 2 or hi < lo:
        raise ValueError("team_size_range must satisfy 2 <= lo <= hi")
    sizes = np.arange(lo, hi + 1, dtype=np.float64)
    p = sizes ** (-size_exponent)
    p /= p.sum()
    team_sizes = rng.choice(np.arange(lo, hi + 1), size=num_teams, p=p)
    srcs = []
    dsts = []
    for size in team_sizes.tolist():
        members = rng.choice(n, size=size, replace=False).astype(np.int64)
        iu = np.triu_indices(size, k=1)
        srcs.append(members[iu[0]])
        dsts.append(members[iu[1]])
    if not srcs:
        return from_edge_array(np.zeros(0, np.int64), np.zeros(0, np.int64), n)
    return from_edge_array(
        np.concatenate(srcs), np.concatenate(dsts), num_vertices=n
    )
