"""Result verification utilities.

Maximum clique is NP-hard, but *checking* a claimed answer is cheap.
:func:`verify_result` validates a result of any problem kind against
the input graph -- useful in tests, in examples, and for downstream
users who want a certificate with their answer. It dispatches on the
result's ``problem``; ``cross_check`` (small graphs only) adds an
independent oracle: Bron-Kerbosch for the clique kinds,
:func:`~repro.baselines.kclique.count_k_cliques_reference` for
k-clique counting.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..graph.csr import CSRGraph
from .result import SolveResult

__all__ = ["is_clique", "is_maximal_clique", "verify_result", "VerificationError"]


class VerificationError(AssertionError):
    """A reported result failed verification against the graph."""


def is_clique(graph: CSRGraph, vertices: Iterable[int]) -> bool:
    """True iff ``vertices`` are distinct and pairwise adjacent."""
    verts = [int(v) for v in vertices]
    if len(set(verts)) != len(verts):
        return False
    if any(v < 0 or v >= graph.num_vertices for v in verts):
        return False
    if len(verts) <= 1:
        return True
    arr = np.asarray(verts, dtype=np.int64)
    iu, iv = np.triu_indices(arr.size, k=1)
    return bool(graph.batch_has_edge(arr[iu], arr[iv]).all())


def is_maximal_clique(graph: CSRGraph, vertices: Iterable[int]) -> bool:
    """True iff ``vertices`` form a clique no vertex can extend."""
    verts = [int(v) for v in vertices]
    if not is_clique(graph, verts):
        return False
    if not verts:
        return graph.num_vertices == 0
    # candidates able to extend: common neighbours of all members
    common = set(graph.neighbors(verts[0]).tolist())
    for v in verts[1:]:
        common &= set(graph.neighbors(v).tolist())
    common -= set(verts)
    return not common


def verify_result(
    graph: CSRGraph,
    result: SolveResult,
    cross_check: bool = False,
    cross_check_limit: int = 60,
) -> None:
    """Validate a solver result by its kind's verifier below; raises
    :class:`VerificationError`. ``cross_check`` refuses graphs above
    ``cross_check_limit`` vertices."""
    check = _CHECKS.get(getattr(result, "problem", None))
    if check is None:
        raise VerificationError(f"no verifier for {type(result).__name__}")
    if cross_check and graph.num_vertices > cross_check_limit:
        raise VerificationError(
            f"cross_check limited to {cross_check_limit} vertices"
        )
    check(graph, result, cross_check)


def _verify_max_clique(graph: CSRGraph, result, cross_check: bool) -> None:
    """Max-clique: the rows are distinct, real, maximal cliques of size
    ω; the heuristic bound is at most ω; with ``cross_check``, ω and
    (when every maximum clique was enumerated) their count match
    Bron-Kerbosch."""
    omega = result.clique_number
    if graph.num_vertices == 0:
        if omega != 0:
            raise VerificationError("empty graph must have omega == 0")
        return
    if omega < 1:
        raise VerificationError(f"non-empty graph with omega == {omega}")

    rows = result.cliques
    if rows.size and rows.shape[1] != omega:
        raise VerificationError(
            f"reported cliques have {rows.shape[1]} vertices, omega is {omega}"
        )
    seen = set()
    for row in rows:
        key = frozenset(int(v) for v in row)
        if len(key) != omega:
            raise VerificationError(f"duplicate vertices in clique {row}")
        if key in seen:
            raise VerificationError(f"clique {sorted(key)} reported twice")
        seen.add(key)
        if not is_clique(graph, row):
            raise VerificationError(f"{sorted(key)} is not a clique")
        if not is_maximal_clique(graph, row):
            raise VerificationError(
                f"{sorted(key)} is extendable -- cannot be maximum"
            )

    if result.heuristic.lower_bound > omega:
        raise VerificationError(
            f"heuristic bound {result.heuristic.lower_bound} exceeds omega {omega}"
        )

    if cross_check:
        from ..baselines.bron_kerbosch import maximum_cliques_via_bk

        ref_omega, ref_cliques = maximum_cliques_via_bk(graph)
        if omega != ref_omega:
            raise VerificationError(
                f"omega {omega} disagrees with Bron-Kerbosch {ref_omega}"
            )
        if result.enumerated_all and result.num_maximum_cliques != len(ref_cliques):
            raise VerificationError(
                f"enumerated {result.num_maximum_cliques} maximum cliques, "
                f"Bron-Kerbosch finds {len(ref_cliques)}"
            )


def _verify_k_clique_count(graph: CSRGraph, result, cross_check: bool) -> None:
    """K-clique counting: the count is not negative, k = 1 and k = 2
    count vertices and edges; with ``cross_check`` it equals the
    reference counter's."""
    k, count = result.k, result.count
    if count < 0:
        raise VerificationError(f"negative {k}-clique count {count}")
    closed = {1: graph.num_vertices, 2: graph.num_edges}.get(k)
    if closed is not None and count != closed:
        raise VerificationError(f"{count} {k}-cliques, the graph has {closed}")
    if cross_check:
        from ..baselines.kclique import count_k_cliques_reference

        ref = count_k_cliques_reference(graph, k)
        if count != ref:
            raise VerificationError(
                f"{count} {k}-cliques, the reference counter finds {ref}"
            )


def _verify_maximal_enum(graph: CSRGraph, result, cross_check: bool) -> None:
    """Maximal enumeration: the rows are distinct, sorted maximal
    cliques in canonical (size, lexicographic) order, and
    ``enumerated_all`` holds exactly when every row is present; then
    they cover every vertex and the largest is ``max_clique_size``.
    With ``cross_check`` the rows, count and ω match Bron-Kerbosch."""
    rows = [tuple(int(v) for v in row) for row in result.cliques]
    total = result.num_maximal_cliques
    if [(len(r), r) for r in rows] != sorted({(len(r), r) for r in rows}):
        raise VerificationError("rows repeat or are out of canonical order")
    for row in rows:
        if list(row) != sorted(row) or not is_maximal_clique(graph, row):
            raise VerificationError(f"{row} is not a sorted maximal clique")
    if result.enumerated_all != (len(rows) == total):
        raise VerificationError(
            f"{len(rows)} of {total} rows reported, "
            f"enumerated_all={result.enumerated_all}"
        )
    if result.enumerated_all:
        covered = {v for row in rows for v in row}
        largest = max(map(len, rows), default=0)
        if (len(covered), largest) != (graph.num_vertices, result.max_clique_size):
            raise VerificationError(
                f"rows cover {len(covered)} of {graph.num_vertices} vertices, the "
                f"largest has {largest}; max_clique_size {result.max_clique_size}"
            )
    if cross_check:
        from ..baselines.bron_kerbosch import maximal_clique_set

        ref = maximal_clique_set(graph)
        ref_omega = len(ref[-1]) if ref else 0
        if (total, result.max_clique_size) != (len(ref), ref_omega) or (
            rows != ref[: len(rows)]
        ):
            raise VerificationError(
                f"{total} maximal cliques (largest {result.max_clique_size}) "
                f"disagree with Bron-Kerbosch's {len(ref)} (largest {ref_omega})"
            )


#: the verifier of each problem kind, keyed by its ``problem`` name
_CHECKS = {
    "max-clique": _verify_max_clique,
    "k-clique-count": _verify_k_clique_count,
    "maximal-enum": _verify_maximal_enum,
}
