"""Compressed sparse row graph with sorted adjacency lists.

The paper stores the input graph in CSR with sorted adjacency lists in
GPU global memory and answers every edge query with a binary search
(Section III-3). We mirror that: :class:`CSRGraph` keeps ``row_offsets``
/ ``col_indices`` with each row sorted, and
:meth:`CSRGraph.batch_has_edge` answers millions of queries per call.

Two lookup strategies are provided:

* ``"keys"`` (default) -- look up each query's edge key ``u * n + v``.
  A graph whose packed adjacency bitmap (one bit per key, ``ceil(n*n /
  8)`` bytes) fits :data:`BITMAP_BUDGET_BYTES` builds that bitmap on its
  first lookup and answers every query with one bit test. A larger
  graph runs a single vectorised ``searchsorted`` over the globally
  sorted ``row * n + col`` edge-key array: rows are stored in
  increasing order and each row is sorted, so the key array is
  globally sorted and one call resolves an arbitrary batch. Both need
  every id in ``[0, n)``: an out-of-range ``v`` would alias another
  key (``(u, n)`` is ``(u + 1, 0)``).
* ``"binary"`` -- an explicit lockstep binary search over per-row
  ranges, iterating ``ceil(log2(max_degree))`` vectorised steps. This
  is the faithful transcription of the device kernel and is the oracle
  the fast paths are tested against.

Either way, the *cost charged to the device* is the same: one binary
search of the source vertex's adjacency list, i.e.
``ceil(log2(deg(u) + 1)) + 1`` ops per query -- this is the dominant
work term of Algorithm 2 and the reason high-degree graphs run slower
(Section V-A). The bitmap and the key array are host lookup indexes:
no launch charges their construction and :attr:`CSRGraph.nbytes`
does not count them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import GraphFormatError
from ..gpusim.device import Device

__all__ = ["BITMAP_BUDGET_BYTES", "CSRGraph"]

#: largest packed adjacency bitmap a graph builds for its edge lookups;
#: ``ceil(n*n / 8)`` bytes fit up to n = 16,384, and every key of a
#: graph under it fits ``int32`` (at most 2**28 bits)
BITMAP_BUDGET_BYTES = 32 << 20


class CSRGraph:
    """An undirected simple graph in CSR form.

    Both directions of every undirected edge are stored, so
    ``len(col_indices) == 2 * num_edges`` and ``degrees`` are true
    undirected degrees.

    Parameters
    ----------
    row_offsets:
        ``int64`` array of length ``n + 1``.
    col_indices:
        ``int32`` array of neighbor ids, sorted within each row.
    validate:
        When true (default), check structural invariants up front.
    edge_keys:
        The graph's :attr:`edge_keys`, when the builder already holds
        them (it must pass exactly the keys the arrays imply); otherwise
        they are derived on first use.
    """

    __slots__ = (
        "row_offsets",
        "col_indices",
        "_edge_keys",
        "_bitmap",
        "_lookup_cost",
        "_fingerprint",
    )

    def __init__(
        self,
        row_offsets: np.ndarray,
        col_indices: np.ndarray,
        validate: bool = True,
        edge_keys: Optional[np.ndarray] = None,
    ) -> None:
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(col_indices, dtype=np.int32)
        self._edge_keys = edge_keys
        self._bitmap: Optional[np.ndarray] = None
        self._lookup_cost: Optional[np.ndarray] = None
        self._fingerprint: Optional[str] = None
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.row_offsets.size - 1

    @property
    def num_directed_edges(self) -> int:
        return self.col_indices.size

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.col_indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        """Undirected vertex degrees (``int64``)."""
        return np.diff(self.row_offsets)

    @property
    def max_degree(self) -> int:
        d = self.degrees
        return int(d.max()) if d.size else 0

    @property
    def average_degree(self) -> float:
        n = self.num_vertices
        return self.num_directed_edges / n if n else 0.0

    @property
    def nbytes(self) -> int:
        """Device-resident size of the CSR structure."""
        return self.row_offsets.nbytes + self.col_indices.nbytes

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor list of ``v`` (a view, do not mutate)."""
        return self.col_indices[self.row_offsets[v] : self.row_offsets[v + 1]]

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check CSR invariants; raise :class:`GraphFormatError` if broken."""
        ro, ci = self.row_offsets, self.col_indices
        if ro.size < 1:
            raise GraphFormatError("row_offsets must have at least one entry")
        if ro[0] != 0 or ro[-1] != ci.size:
            raise GraphFormatError(
                f"row_offsets must span [0, {ci.size}]; got [{ro[0]}, {ro[-1]}]"
            )
        if np.any(np.diff(ro) < 0):
            raise GraphFormatError("row_offsets must be non-decreasing")
        n = self.num_vertices
        if ci.size:
            if ci.min() < 0 or ci.max() >= n:
                raise GraphFormatError("col_indices out of vertex range")
            # sorted & duplicate-free within each row
            inner = np.ones(ci.size, dtype=bool)
            starts = ro[1:-1]
            inner[starts[starts < ci.size]] = False  # row boundaries may decrease
            bad = (np.diff(ci) <= 0) & inner[1:]
            if bad.any():
                raise GraphFormatError(
                    "adjacency lists must be strictly increasing within each row"
                )
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(ro))
            if np.any(rows == ci):
                raise GraphFormatError("self loops are not allowed")

    # ------------------------------------------------------------------
    # edge lookup
    # ------------------------------------------------------------------
    @property
    def edge_keys(self) -> np.ndarray:
        """Globally sorted ``row * n + col`` keys (built lazily)."""
        if self._edge_keys is None:
            n = self.num_vertices
            rows = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.row_offsets)
            )
            self._edge_keys = rows * n + self.col_indices.astype(np.int64)
        return self._edge_keys

    @property
    def adjacency_bitmap(self) -> Optional[np.ndarray]:
        """Packed adjacency bitmap, or None over :data:`BITMAP_BUDGET_BYTES`.

        ``uint8`` array of ``ceil(n*n / 8)`` bytes with bit ``key & 7``
        of byte ``key >> 3`` set for every :attr:`edge_keys` entry.
        Built lazily from the sorted keys: each byte ORs the bit masks
        of the keys that fall in it.
        """
        if self._bitmap is None:
            n = self.num_vertices
            size = (n * n + 7) // 8
            if size > BITMAP_BUDGET_BYTES:
                return None
            keys = self.edge_keys
            bitmap = np.zeros(size, dtype=np.uint8)
            if keys.size:
                byte = keys >> 3
                bits = np.left_shift(np.uint8(1), (keys & 7).astype(np.uint8))
                starts = np.flatnonzero(
                    np.concatenate(([True], byte[1:] != byte[:-1]))
                )
                bitmap[byte[starts]] = np.bitwise_or.reduceat(bits, starts)
            self._bitmap = bitmap
        return self._bitmap

    @property
    def lookup_cost(self) -> np.ndarray:
        """Per-vertex op cost of one adjacency binary search."""
        if self._lookup_cost is None:
            d = self.degrees
            self._lookup_cost = np.ceil(np.log2(d + 1.0)).astype(np.int64) + 1
        return self._lookup_cost

    def has_edge(self, u: int, v: int) -> bool:
        """Scalar edge query (binary search of ``u``'s adjacency)."""
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < row.size and row[i] == v)

    def batch_has_edge(
        self,
        u: np.ndarray,
        v: np.ndarray,
        device: Optional[Device] = None,
        method: str = "keys",
    ) -> np.ndarray:
        """Vectorised edge queries ``(u[i], v[i]) in E``.

        Parameters
        ----------
        u, v:
            Equal-length integer arrays of endpoints, every id in
            ``[0, n)`` (out-of-range ids alias other keys or raise).
        device:
            When given, charges the device one kernel with the per-query
            binary-search cost ``ceil(log2(deg(u)+1)) + 1``.
        method:
            ``"keys"`` (fast path: the :attr:`adjacency_bitmap` when the
            graph has one, otherwise a search of the sorted
            :attr:`edge_keys`) or ``"binary"`` (faithful lockstep search,
            the oracle the fast path is tested against).
        """
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape != v.shape:
            raise ValueError("u and v must have the same shape")
        if device is not None and u.size:
            device.launch(
                self.lookup_cost[u].astype(np.float64),
                name="batch_has_edge",
            )
        if u.size == 0:
            return np.zeros(0, dtype=bool)
        if method == "keys":
            bitmap = self.adjacency_bitmap
            if bitmap is not None:
                return self._lookup_bitmap(bitmap, u, v)
            return self._lookup_keys(u, v)
        if method == "binary":
            return self._lookup_binary(u, v)
        raise ValueError(f"unknown lookup method {method!r}")

    def _lookup_bitmap(
        self, bitmap: np.ndarray, u: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        q = np.multiply(u, self.num_vertices, dtype=np.int32)
        q += v
        hit = bitmap.take(q >> 3)
        hit >>= (q & 7).astype(np.uint8)
        hit &= 1
        return hit.view(bool)

    def _lookup_keys(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        n = self.num_vertices
        keys = self.edge_keys
        q = u.astype(np.int64) * n + v.astype(np.int64)
        pos = np.searchsorted(keys, q)
        found = pos < keys.size
        out = np.zeros(u.size, dtype=bool)
        idx = np.flatnonzero(found)
        out[idx] = keys[pos[idx]] == q[idx]
        return out

    def _lookup_binary(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        lo = self.row_offsets[u].copy()
        hi = self.row_offsets[u + 1].copy()
        target = v.astype(np.int32)
        found = np.zeros(u.size, dtype=bool)
        active = lo < hi
        col = self.col_indices
        while active.any():
            idx = np.flatnonzero(active)
            mid = (lo[idx] + hi[idx]) >> 1
            mv = col[mid]
            t = target[idx]
            hit = mv == t
            found[idx[hit]] = True
            less = mv < t
            lo[idx[less]] = mid[less] + 1
            greater = ~less & ~hit
            hi[idx[greater]] = mid[greater]
            active[idx[hit]] = False
            active &= lo < hi
        return found

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of the graph (hex SHA-256).

        Covers the vertex/edge counts and the exact ``row_offsets`` /
        ``col_indices`` contents, so two :class:`CSRGraph` instances
        share a fingerprint iff they encode the same labelled graph.
        Isomorphic graphs with different vertex labels hash
        differently -- the fingerprint identifies the *input*, which is
        what result caching needs (the solve service keys its cache on
        ``fingerprint()`` plus the solver configuration). Computed once
        and memoised; the arrays are immutable by convention.
        """
        if self._fingerprint is None:
            import hashlib

            h = hashlib.sha256()
            h.update(b"repro-csr/1")
            h.update(np.int64(self.num_vertices).tobytes())
            h.update(np.int64(self.num_directed_edges).tobytes())
            h.update(self.row_offsets.tobytes())
            h.update(self.col_indices.tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def to_edge_list(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return one (src < dst) pair per undirected edge."""
        n = self.num_vertices
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(self.row_offsets))
        mask = rows < self.col_indices
        return rows[mask], self.col_indices[mask].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"avg_deg={self.average_degree:.2f})"
        )
