"""A resident mutable graph: one CSR per epoch, spliced batch by batch.

:class:`MutableGraph` is the storage half of a streaming graph
session (docs/STREAMING.md). It holds the current epoch's
:class:`~repro.graph.csr.CSRGraph` and, until :meth:`materialize`
splices it in, the newest mutation batch -- nothing else.
:meth:`materialize` derives the next epoch's CSR with
:func:`~repro.graph.build.splice_edges`: it cuts the batch's deleted
keys out of the current CSR's sorted ``edge_keys`` and splices the
inserted ones in, so no epoch sorts the whole graph again. A session
materializes after every batch, so each splice carries one batch's
net delta; a batch applied while another is pending splices that one
first.

Epochs are the version counter of the graph: every successful
:meth:`apply` bumps ``epoch`` by exactly one and returns the
:class:`MutationDelta` describing the *net* change (inserting an edge
that already exists, or deleting one that does not, is a no-op that
still spends the epoch). :meth:`revert` un-applies a delta, which is
how a session rolls a failed solve's mutation back so a client retry
sees clean state: a batch that was never spliced is dropped, a spliced
one is undone by splicing its inverse.

The vertex universe is monotone: an endpoint id seen once keeps its
slot even after its last edge is deleted (``num_vertices`` never
shrinks mid-session), so epochs remain comparable. Only
:meth:`revert` takes it back, to the universe before the reverted
batch; :func:`~repro.graph.build.splice_edges` keys the removed edges
in the larger universe before the re-key, where no two edges share a
key. The canonical materialisation of any epoch is byte-identical to
``from_edge_array(edges, num_vertices=self.num_vertices)`` over the
net edge set -- the fingerprint a from-scratch solve of the same
epoch would see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

# Unused here since epochs are spliced, but the benchmark's traced run
# (perfbench/layers.py) times this module's ``from_edge_array`` and
# patching a missing name raises AttributeError.
from ..graph.build import from_edge_array  # noqa: F401
from ..graph.build import splice_edges
from ..graph.csr import CSRGraph

__all__ = ["MutableGraph", "MutationDelta"]

Edge = Tuple[int, int]


def _canon(u: int, v: int) -> Edge:
    """Canonical undirected form ``(min, max)`` of one edge."""
    return (u, v) if u < v else (v, u)


def _has(graph: CSRGraph, e: Edge) -> bool:
    """Whether canonical edge ``e`` is in ``graph`` (ids may lie past it)."""
    return e[1] < graph.num_vertices and graph.has_edge(*e)


def _validate_pairs(pairs: Iterable, what: str) -> List[Edge]:
    """Normalise a mutation batch's edge list; rejects self loops."""
    out: List[Edge] = []
    for pair in pairs:
        try:
            u, v = pair
            if isinstance(u, bool) or isinstance(v, bool):
                raise TypeError("booleans are not vertex ids")
            u, v = int(u), int(v)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what} entries must be (u, v) pairs") from exc
        if u < 0 or v < 0:
            raise ValueError(f"{what} vertex ids must be non-negative")
        if u == v:
            raise ValueError(f"{what} must not contain self loops ({u},{v})")
        out.append(_canon(u, v))
    return out


@dataclass(frozen=True)
class MutationDelta:
    """The net effect of one applied mutation batch.

    ``inserted`` / ``deleted`` hold only the edges that actually
    changed presence (canonical ``u < v`` pairs, sorted for
    determinism); requested no-ops are dropped. ``prev_universe``
    remembers the vertex universe before the batch so :meth:`revert`
    can restore it exactly.
    """

    epoch: int
    inserted: Tuple[Edge, ...] = ()
    deleted: Tuple[Edge, ...] = ()
    prev_universe: int = 0

    @property
    def size(self) -> int:
        return len(self.inserted) + len(self.deleted)


class MutableGraph:
    """The current epoch's CSR, plus the newest batch until it is spliced."""

    def __init__(self, graph: CSRGraph) -> None:
        self.epoch = 0
        #: the CSR of the newest spliced epoch
        self._graph = graph
        #: the newest batch while it is not spliced into ``_graph``
        self._pending: Optional[MutationDelta] = None
        self._universe = graph.num_vertices

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Monotone vertex universe (never shrinks mid-session)."""
        return self._universe

    @property
    def num_edges(self) -> int:
        batch = self._pending
        grown = len(batch.inserted) - len(batch.deleted) if batch else 0
        return self._graph.num_edges + grown

    def has_edge(self, u: int, v: int) -> bool:
        return _has(self.materialize(), _canon(int(u), int(v)))

    def materialize(self) -> CSRGraph:
        """The canonical CSR of the current epoch.

        Splices the pending batch in with
        :func:`~repro.graph.build.splice_edges`, then returns the same
        object until the next batch that changes an edge. Byte-identical
        to building a fresh graph from the net edge list over the same
        vertex universe -- its
        :meth:`~repro.graph.csr.CSRGraph.fingerprint` is the one a
        from-scratch solve of this epoch sees. A failed splice changes
        nothing.
        """
        batch = self._pending
        if batch is not None:
            self._graph = splice_edges(
                self._graph, batch.inserted, batch.deleted, self._universe
            )
            self._pending = None
        return self._graph

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply(self, inserts: Iterable = (), deletes: Iterable = ()) -> MutationDelta:
        """Apply one batch of edge inserts and deletes; bumps the epoch.

        Returns the net :class:`MutationDelta`. Inserting a present
        edge or deleting an absent one is a silent no-op; an edge named
        in *both* lists is ambiguous and rejected with ``ValueError``
        (the batch is not applied). A batch still pending from the
        previous epoch is spliced in first.
        """
        ins = _validate_pairs(inserts, "insert")
        dels = _validate_pairs(deletes, "delete")
        both = set(ins) & set(dels)
        if both:
            raise ValueError(
                f"edge(s) {sorted(both)} appear in both insert and delete"
            )
        graph = self.materialize()
        deleted = tuple(sorted(e for e in set(dels) if _has(graph, e)))
        inserted = tuple(sorted(e for e in set(ins) if not _has(graph, e)))
        prev_universe = self._universe
        self._universe = max([prev_universe] + [v + 1 for _, v in inserted])
        self.epoch += 1
        delta = MutationDelta(
            epoch=self.epoch,
            inserted=inserted,
            deleted=deleted,
            prev_universe=prev_universe,
        )
        self._pending = delta if delta.size else None
        return delta

    def revert(self, delta: MutationDelta) -> None:
        """Un-apply the most recent delta (failed-solve rollback).

        A batch that was never spliced is dropped. A spliced one is
        undone by splicing its inverse under ``delta.prev_universe``;
        a failed splice changes nothing.
        """
        if delta.epoch != self.epoch:
            raise ValueError(
                f"can only revert the newest epoch {self.epoch}, "
                f"got delta for epoch {delta.epoch}"
            )
        if self._pending is None and delta.size:
            self._graph = splice_edges(
                self._graph, delta.deleted, delta.inserted, delta.prev_universe
            )
        self._pending = None
        self._universe = delta.prev_universe
        self.epoch -= 1
