"""Result cache keyed by graph content + solver configuration.

Identical requests are common in serving workloads (the same graph
re-queried, sweeps re-running a shared baseline), and a maximum-clique
solve is a pure function of ``(graph, config)`` -- so the service
memoises completed jobs. The key combines
:meth:`repro.graph.csr.CSRGraph.fingerprint` (stable content hash of
the CSR arrays) with a canonical rendering of the *result-relevant*
:class:`~repro.core.config.SolverConfig` fields; host-side-only knobs
(``chunk_pairs``, ``time_limit_s``) are excluded so two requests that
differ only in wall-time budget still share a result.

Eviction is LRU with a bounded entry count. Hit/miss counters are kept
locally and surfaced through the PR-1 tracer as the
``service.cache.hits`` / ``service.cache.misses`` counters (see
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..core.config import SolverConfig, config_fingerprint
from ..graph.csr import CSRGraph
from ..trace import NULL_TRACER, Tracer

__all__ = ["ResultCache", "request_key"]


def request_key(graph: CSRGraph, config: SolverConfig) -> Tuple[str, str]:
    """The cache key of one ``(graph, config)`` request."""
    return (graph.fingerprint(), config_fingerprint(config))


class ResultCache:
    """Bounded LRU cache of completed job records.

    Parameters
    ----------
    capacity:
        Maximum number of cached entries; 0 disables caching (every
        lookup misses, nothing is stored).
    tracer:
        Tracer receiving ``service.cache.hits`` / ``.misses`` /
        ``.evictions`` counters; the default no-op tracer records
        nothing.
    """

    def __init__(self, capacity: int = 128, tracer: Tracer = NULL_TRACER) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.tracer = tracer
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Tuple[str, str], object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        """Membership probe; counts neither a hit nor a miss."""
        return key in self._entries

    def get(self, key: Tuple[str, str]) -> Optional[object]:
        """Return the cached value or None; counts a hit or a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self.tracer.counter("service.cache.misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.tracer.counter("service.cache.hits")
        return entry

    def put(self, key: Tuple[str, str], value: object) -> None:
        """Insert/refresh an entry, evicting the LRU one past capacity."""
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self.tracer.counter("service.cache.evictions")

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._entries.clear()
