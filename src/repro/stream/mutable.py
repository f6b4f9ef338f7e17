"""A resident mutable graph: base CSR plus adjacency deltas.

:class:`MutableGraph` is the storage half of a streaming graph
session (docs/STREAMING.md). It holds a compacted base
:class:`~repro.graph.csr.CSRGraph` plus two bounded delta sets --
edges added since the last compaction and edges removed from the base
-- so a mutation batch costs O(batch). :meth:`materialize` derives the
epoch's CSR from the base with
:func:`~repro.graph.build.splice_edges`: it cuts the removed edges'
keys out of the base's sorted ``edge_keys`` and splices the added
ones in, so no epoch sorts the whole graph again. Once the deltas
grow past ``compact_every`` edges, :meth:`materialize` makes its
result the new base (compaction) and the deltas empty again.

Epochs are the version counter of the graph: every successful
:meth:`apply` bumps ``epoch`` by exactly one and returns the
:class:`MutationDelta` describing the *net* change (inserting an edge
that already exists, or deleting one that does not, is a no-op that
still spends the epoch). :meth:`revert` un-applies a delta, which is
how a session rolls a failed solve's mutation back so a client retry
sees clean state.

The vertex universe is monotone: an endpoint id seen once keeps its
slot even after its last edge is deleted (``num_vertices`` never
shrinks mid-session), so epochs remain comparable. Only
:meth:`revert` takes it back, to the universe before the reverted
batch. The canonical materialisation of any epoch is byte-identical
to ``from_edge_array(edges, num_vertices=self.num_vertices)`` over the
net edge set -- the fingerprint a from-scratch solve of the same
epoch would see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, Tuple

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


@dataclass
class MutableGraph:
    """Base CSR + adjacency deltas with periodic compaction."""

    base: CSRGraph
    #: fold deltas into the base once they reach this many edges
    compact_every: int = 2048
    epoch: int = 0
    compactions: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.compact_every < 1:
            raise ValueError("compact_every must be at least 1")
        self._added: Set[Edge] = set()
        self._removed: Set[Edge] = set()
        self._universe = self.base.num_vertices
        self._mat: Optional[CSRGraph] = self.base

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Monotone vertex universe (never shrinks mid-session)."""
        return self._universe

    @property
    def num_edges(self) -> int:
        return self.base.num_edges + len(self._added) - len(self._removed)

    @property
    def delta_size(self) -> int:
        """Edges currently held outside the base CSR."""
        return len(self._added) + len(self._removed)

    def has_edge(self, u: int, v: int) -> bool:
        e = _canon(int(u), int(v))
        if e in self._added:
            return True
        if e in self._removed:
            return False
        n = self.base.num_vertices
        return e[0] < n and e[1] < n and self.base.has_edge(e[0], e[1])

    def materialize(self) -> CSRGraph:
        """The canonical CSR of the current epoch (cached; compacts).

        Byte-identical to building a fresh graph from the net edge
        list over the same vertex universe -- its
        :meth:`~repro.graph.csr.CSRGraph.fingerprint` is the one a
        from-scratch solve of this epoch sees. Spliced from the base:
        ``_removed`` lies inside the base and ``_added`` is disjoint
        from it.
        """
        if self._mat is None:
            self._mat = splice_edges(
                self.base, self._added, self._removed, self._universe
            )
        if self.delta_size >= self.compact_every:
            self.base = self._mat
            self._added.clear()
            self._removed.clear()
            self.compactions += 1
        return self._mat

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply(self, inserts: Iterable = (), deletes: Iterable = ()) -> MutationDelta:
        """Apply one batch of edge inserts and deletes; bumps the epoch.

        Returns the net :class:`MutationDelta`. Inserting a present
        edge or deleting an absent one is a silent no-op; an edge named
        in *both* lists is ambiguous and rejected with ``ValueError``
        (the batch is not applied).
        """
        ins = _validate_pairs(inserts, "insert")
        dels = _validate_pairs(deletes, "delete")
        both = set(ins) & set(dels)
        if both:
            raise ValueError(
                f"edge(s) {sorted(both)} appear in both insert and delete"
            )
        prev_universe = self._universe
        deleted = tuple(sorted(e for e in set(dels) if self.has_edge(*e)))
        for e in deleted:
            if e in self._added:
                self._added.discard(e)
            else:
                self._removed.add(e)
        inserted = tuple(sorted(e for e in set(ins) if not self.has_edge(*e)))
        for e in inserted:
            if e in self._removed:
                self._removed.discard(e)
            else:
                self._added.add(e)
            self._universe = max(self._universe, e[1] + 1)
        self.epoch += 1
        self._mat = None if (inserted or deleted) else self._mat
        return MutationDelta(
            epoch=self.epoch,
            inserted=inserted,
            deleted=deleted,
            prev_universe=prev_universe,
        )

    def revert(self, delta: MutationDelta) -> None:
        """Un-apply the most recent delta (failed-solve rollback)."""
        if delta.epoch != self.epoch:
            raise ValueError(
                f"can only revert the newest epoch {self.epoch}, "
                f"got delta for epoch {delta.epoch}"
            )
        for e in delta.inserted:
            if e in self._added:
                self._added.discard(e)
            else:
                self._removed.add(e)
        for e in delta.deleted:
            if e in self._removed:
                self._removed.discard(e)
            else:
                self._added.add(e)
        self._universe = delta.prev_universe
        self.epoch -= 1
        self._mat = None
