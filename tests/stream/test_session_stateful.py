"""Stateful property testing: one graph session against a model.

A hypothesis rule-based machine drives one ``GraphSession`` through
fresh mutation batches (ids may grow its universe), re-sent request
ids, batches applied while the solve backend fails, and a close. The
model is the edge set, vertex universe and epoch the machine tracks
itself. After every step the session's view must equal a fresh
``IncrementalSolver.bootstrap`` of the model's graph, built with
``from_edge_array`` rather than taken from the session.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.config import SolverConfig
from repro.errors import SessionError
from repro.graph import from_edge_list
from repro.graph.build import from_edge_array
from repro.stream import GraphSession, IncrementalSolver, local_solve_batch

#: the epoch-0 graph: two triangles sharing vertex 2, plus a tail
BASE = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5)]
N0 = 6
TOP = 9  # ids up to here grow the universe

pairs = st.lists(
    st.tuples(st.integers(0, TOP), st.integers(0, TOP))
    .filter(lambda e: e[0] != e[1])
    .map(lambda e: (min(e), max(e))),
    max_size=4,
)


class SessionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.failing = False
        self.session = GraphSession(
            "m", from_edge_list(BASE, num_vertices=N0), solve_batch=self._solve
        )
        self.edges = set(BASE)
        self.universe = N0
        self.epoch = 0
        self.closed = False
        self.sent = 0
        #: request id -> (batch, view) of every applied batch
        self.applied = {}

    def _solve(self, jobs):
        if self.failing:
            raise RuntimeError("injected solve failure")
        return local_solve_batch(jobs)

    def _apply(self, inserts, deletes):
        """Send a batch under a fresh request id; the model follows on success."""
        self.sent += 1
        rid = f"rq-{self.sent}"
        deletes = [e for e in deletes if e not in inserts]
        if self.closed:
            with pytest.raises(SessionError) as exc_info:
                self.session.apply(inserts, deletes, request_id=rid)
            assert exc_info.value.code == "unknown_session"
            return
        view = self.session.apply(inserts, deletes, request_id=rid)
        grown = set(inserts) - self.edges
        self.edges = (self.edges - set(deletes)) | grown
        self.universe = max([self.universe] + [v + 1 for _, v in grown])
        self.epoch += 1
        assert view.epoch == self.epoch and not view.replayed
        self.applied[rid] = ((inserts, deletes), view)

    @rule(inserts=pairs, deletes=pairs)
    def apply_batch(self, inserts, deletes):
        self._apply(inserts, deletes)

    @precondition(lambda self: self.applied)
    @rule(data=st.data())
    def resend(self, data):
        rid = data.draw(st.sampled_from(sorted(self.applied)))
        (inserts, deletes), first = self.applied[rid]
        before = self.session.view
        if self.closed:
            with pytest.raises(SessionError) as exc_info:
                self.session.apply(inserts, deletes, request_id=rid)
            assert exc_info.value.code == "unknown_session"
            return
        replay = self.session.apply(inserts, deletes, request_id=rid)
        assert replay.replayed
        assert {**replay.to_dict(), "replayed": False} == first.to_dict()
        assert self.session.epoch == self.epoch and self.session.view is before

    @rule(inserts=pairs, deletes=pairs)
    def apply_while_solves_fail(self, inserts, deletes):
        before = self.session.view
        self.failing = True
        try:
            self._apply(inserts, deletes)
        except RuntimeError as exc:
            assert "injected solve failure" in str(exc)
            assert self.session.epoch == self.epoch
            assert self.session.view is before
            graph = self.session.mutable.materialize()
            assert graph.fingerprint() == before.fingerprint
        finally:
            self.failing = False

    @rule()
    def close(self):
        self.session.close()
        self.closed = True

    @invariant()
    def view_matches_a_fresh_bootstrap(self):
        edges = np.asarray(sorted(self.edges), dtype=np.int64).reshape(-1, 2)
        graph = from_edge_array(edges[:, 0], edges[:, 1], num_vertices=self.universe)
        state = IncrementalSolver(SolverConfig(), local_solve_batch).bootstrap(graph)
        view = self.session.view
        assert view.epoch == self.session.epoch == self.epoch
        assert view.fingerprint == graph.fingerprint()
        assert view.omega == state.omega
        assert view.num_maximum_cliques == state.num_maximum_cliques
        assert view.witness == state.witness
        assert self.session.mutable.materialize().fingerprint() == graph.fingerprint()


SessionMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestSessionMachine = SessionMachine.TestCase
