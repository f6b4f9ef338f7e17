"""Graph sessions: resident graphs with versioned, watchable answers.

A :class:`GraphSession` pairs one :class:`~repro.stream.mutable.MutableGraph`
with one :class:`~repro.stream.incremental.IncrementalSolver` and
exposes exactly two operations -- :meth:`apply` a mutation batch,
read the current :class:`SessionView` -- plus idempotent-retry
support: a mutation carrying a ``request_id`` that was already
applied replays its recorded view instead of mutating again (the
streaming counterpart of the server's solve dedup table).

Sessions are *not* thread-safe; the owner serializes all calls (the
server funnels every session operation through the single
:class:`~repro.server.bridge.SolveBridge` worker, which is also the
only legal driver of the blocking service stack).

:class:`SessionManager` is the bounded registry the server keeps:
create / get / close by session id.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from ..core.config import SolverConfig
from ..errors import SessionError
from ..graph.csr import CSRGraph
from ..trace import NULL_TRACER, Tracer
from .incremental import IncrementalSolver, SolveBatchFn, local_solve_batch
from .mutable import MutableGraph

__all__ = ["GraphSession", "SessionManager", "SessionView"]


@dataclass(frozen=True)
class SessionView:
    """The answer a session holds at one epoch (what ``update`` frames carry)."""

    session: str
    epoch: int
    omega: int
    num_maximum_cliques: int
    witness: Tuple[int, ...]
    fingerprint: str
    num_vertices: int
    num_edges: int
    #: how this epoch was reached: ``open`` / ``incremental`` / ``full``
    path: str
    #: True when this view answered a replayed (duplicate) mutation
    replayed: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "session": self.session,
            "epoch": self.epoch,
            "omega": self.omega,
            "num_maximum_cliques": self.num_maximum_cliques,
            "witness": [int(v) for v in self.witness],
            "fingerprint": self.fingerprint,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "path": self.path,
            "replayed": self.replayed,
        }


class GraphSession:
    """One resident graph plus its incrementally maintained answer.

    Parameters
    ----------
    session_id:
        Caller-chosen identifier (the router pins sessions to backends
        by hashing it, so the *client* picks it before open).
    graph:
        The epoch-0 graph; solved in full on construction.
    config:
        Solver configuration of every epoch's answer. Must be a
        max-clique config (the maintained quantity is ω(G)).
    solve_batch:
        Exact solve backend; defaults to in-process per-job devices
        (:func:`~repro.stream.incremental.local_solve_batch`).
    dedup_capacity:
        How many applied mutation ``request_id``s are remembered for
        duplicate replay (oldest evicted past the cap).
    """

    def __init__(
        self,
        session_id: str,
        graph: CSRGraph,
        config: Optional[SolverConfig] = None,
        solve_batch: Optional[SolveBatchFn] = None,
        *,
        dirty_threshold: float = 0.5,
        max_localized: int = 64,
        dedup_capacity: int = 256,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        config = config if config is not None else SolverConfig()
        if config.problem != "max-clique":
            raise SessionError(
                f"sessions maintain ω(G); problem kind {config.problem!r} "
                "is not streamable"
            )
        if config.omega_floor:
            raise SessionError(
                "omega_floor is managed by the session's incremental "
                "solver; open the session without one"
            )
        self.session_id = session_id
        self.config = config
        self.tracer = tracer
        self.mutable = MutableGraph(graph)
        self.solver = IncrementalSolver(
            config,
            solve_batch if solve_batch is not None else local_solve_batch,
            dirty_threshold=dirty_threshold,
            max_localized=max_localized,
            tracer=tracer,
        )
        self.closed = False
        self._dedup_capacity = max(int(dedup_capacity), 0)
        self._applied: "OrderedDict[str, SessionView]" = OrderedDict()
        self.solver.bootstrap(self.mutable.materialize())
        self.view = self._make_view("open")

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.mutable.epoch

    def _make_view(self, path: str, replayed: bool = False) -> SessionView:
        graph = self.mutable.materialize()
        state = self.solver.state
        return SessionView(
            session=self.session_id,
            epoch=self.mutable.epoch,
            omega=state.omega,
            num_maximum_cliques=state.num_maximum_cliques,
            witness=state.witness,
            fingerprint=graph.fingerprint(),
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            path=path,
            replayed=replayed,
        )

    def apply(
        self,
        inserts: Iterable = (),
        deletes: Iterable = (),
        request_id: Optional[str] = None,
    ) -> SessionView:
        """Apply one mutation batch; returns the new epoch's view.

        With a ``request_id`` that was already applied, nothing
        mutates and the recorded view replays (idempotent retry). On
        a solve failure the graph delta is rolled back before the
        exception propagates, so the session state still matches the
        last successful epoch and a retry starts clean.
        """
        if self.closed:
            raise SessionError(
                f"session {self.session_id!r} is closed",
                code="unknown_session",
            )
        if request_id is not None:
            seen = self._applied.get(request_id)
            if seen is not None:
                self._applied.move_to_end(request_id)
                self.tracer.counter("stream.replays")
                return SessionView(
                    **{**seen.__dict__, "replayed": True}
                )
        try:
            delta = self.mutable.apply(inserts, deletes)
        except ValueError as exc:
            raise SessionError(f"bad mutation batch: {exc}") from exc
        try:
            _, path = self.solver.apply(self.mutable.materialize(), delta)
        except BaseException:
            self.mutable.revert(delta)
            raise
        self.view = self._make_view(path)
        if request_id is not None:
            self._applied[request_id] = self.view
            while len(self._applied) > self._dedup_capacity:
                self._applied.popitem(last=False)
        return self.view

    def close(self) -> SessionView:
        self.closed = True
        return self.view

    def stats(self) -> Dict[str, Any]:
        """Counters for the ``stats`` frame / tests."""
        return {
            "epoch": self.mutable.epoch,
            "incremental_batches": self.solver.incremental_batches,
            "full_solves": self.solver.full_solves,
            "localized_solves": self.solver.localized_solves,
            "tracking": self.solver.tracking,
        }


class SessionManager:
    """Bounded id -> :class:`GraphSession` registry."""

    def __init__(self, max_sessions: int = 64) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self.max_sessions = max_sessions
        self._sessions: Dict[str, GraphSession] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def create(self, session: GraphSession) -> GraphSession:
        if session.session_id in self._sessions:
            raise SessionError(
                f"session {session.session_id!r} already exists",
                code="session_exists",
            )
        if len(self._sessions) >= self.max_sessions:
            raise SessionError(
                f"session cap of {self.max_sessions} reached",
                code="too_many_sessions",
            )
        self._sessions[session.session_id] = session
        return session

    def get(self, session_id: str) -> GraphSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(
                f"unknown session {session_id!r}", code="unknown_session"
            )
        return session

    def close(self, session_id: str) -> GraphSession:
        session = self.get(session_id)
        del self._sessions[session_id]
        session.close()
        return session

    def ids(self):
        return sorted(self._sessions)
