"""Streaming graph sessions: resident graphs, incremental re-solve.

The stream layer turns one-shot solving into a stateful graph
service: a :class:`GraphSession` holds a resident
:class:`MutableGraph` (one CSR per epoch, each batch spliced into
the last) whose edge set mutates in versioned epochs, and an
:class:`IncrementalSolver` keeps ω(G) -- with the exact set of
maximum cliques behind it -- byte-identical to a from-scratch solve
of every epoch while absorbing most insert batches with small
localized solves instead of full re-solves. docs/STREAMING.md is the
design document; the wire surface (``open-session`` / ``mutate`` /
``subscribe`` frames) lives in :mod:`repro.server`.
"""

from .incremental import IncrementalSolver, local_solve_batch
from .mutable import MutableGraph, MutationDelta
from .session import GraphSession, SessionManager, SessionView

__all__ = [
    "GraphSession",
    "IncrementalSolver",
    "MutableGraph",
    "MutationDelta",
    "SessionManager",
    "SessionView",
    "local_solve_batch",
]
