"""Stateful property testing: one streaming session over the wire.

A hypothesis rule-based machine drives a session on a background
``ServerThread`` through the frames a client sends: mutations under
fresh request ids, re-sent mutate and solve request ids on new
connections, mutations while the service's ``fault_hook`` raises,
subscriptions on dedicated connections, and a close. The model is the
in-process machine's (tests/stream/test_session_stateful.py): the edge
set, vertex universe and epoch the machine tracks itself, checked
against a fresh ``IncrementalSolver.bootstrap``. The server's dedup
table is small, so solves evict from it; the machine tracks which
request ids it still holds.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.config import SolverConfig
from repro.errors import DeviceOOMError
from repro.graph import from_edge_list
from repro.graph.build import from_edge_array
from repro.server import ServerConfig, ServerThread, protocol
from repro.service import SolveService
from repro.stream import IncrementalSolver, local_solve_batch
from tests.stream.test_session_stateful import BASE, N0, pairs

from .conftest import RawConn

#: the server's dedup capacity, small so that solves evict from it
DEDUP_CAPACITY = 3

#: a mutation batch: inserts, then deletes that are not also inserted
batches = st.tuples(pairs, pairs).map(
    lambda b: (b[0], [e for e in b[1] if e not in b[0]])
).filter(lambda b: b[0] or b[1])


def view_of(frame):
    """A session frame's view fields, without its frame type and id."""
    return {k: v for k, v in frame.items() if k not in ("type", "id")}


class WireSessionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.failing = False
        self.service = SolveService(max_attempts=1, fault_hook=self._hook)
        self.handle = ServerThread(
            self.service, ServerConfig(port=0, dedup_capacity=DEDUP_CAPACITY)
        ).start()
        self.conns = []
        self.main = self._connect()
        self.edges = set(BASE)
        self.universe = N0
        self.epoch = 0
        self.closed = False
        self.sent = 0
        #: request id -> (frame, reply) of every applied mutation
        self.applied = {}
        #: request id -> (frame, reply) of the solves the dedup table holds
        self.solves = OrderedDict()
        #: live subscriptions: [connection, last epoch seen]
        self.subs = []
        self.view = self._call(self.main, {
            "type": "open-session", "id": "open", "session": "s",
            "graph": protocol.encode_graph(from_edge_list(BASE, N0)),
        })
        assert self.view["type"] == "session-opened" and self.view["epoch"] == 0

    def teardown(self):
        for conn in self.conns:
            conn.close()
        self.handle.stop()

    # ------------------------------------------------------------------
    def _hook(self, request, attempt, config):
        if self.failing:
            raise DeviceOOMError(requested=1, in_use=0, budget=0)

    def _connect(self):
        conn = RawConn(self.handle.port)
        conn.hello()
        self.conns.append(conn)
        return conn

    def _call(self, conn, frame):
        conn.send(frame)
        return conn.recv()

    def _fresh_id(self, prefix):
        self.sent += 1
        return f"{prefix}-{self.sent}"

    def _graph(self):
        edges = np.asarray(sorted(self.edges), dtype=np.int64).reshape(-1, 2)
        return from_edge_array(edges[:, 0], edges[:, 1], num_vertices=self.universe)

    def _stats(self):
        return self._call(self.main, {"type": "stats"})

    def _mutate(self, batch):
        """Send ``batch`` under a fresh request id; the model follows
        when the reply says it applied. Returns the reply."""
        inserts, deletes = batch
        rid = self._fresh_id("mut")
        frame = {
            "type": "mutate", "id": rid, "request_id": rid, "session": "s",
            "insert": [list(e) for e in inserts],
            "delete": [list(e) for e in deletes],
        }
        reply = self._call(self.main, frame)
        if self.closed:
            assert reply["type"] == "error" and reply["code"] == "unknown_session"
            return reply
        if reply["type"] == "error":
            return reply
        grown = set(inserts) - self.edges
        self.edges = (self.edges - set(deletes)) | grown
        self.universe = max([self.universe] + [v + 1 for _, v in grown])
        self.epoch += 1
        assert reply["type"] == "mutated" and reply["replayed"] is False
        assert reply["epoch"] == self.epoch
        self.applied[rid] = (frame, reply)
        self.view = reply
        for sub in self.subs:
            # pushes may coalesce, but they rise and reach the new epoch
            while sub[1] < self.epoch:
                update = sub[0].recv()
                assert update["type"] == "update" and update["epoch"] > sub[1]
                sub[1] = update["epoch"]
        return reply

    # ------------------------------------------------------------------
    @rule(batch=batches)
    def mutate(self, batch):
        reply = self._mutate(batch)
        assert self.closed or reply["type"] == "mutated", reply

    @precondition(lambda self: self.applied)
    @rule(data=st.data())
    def resend_mutate(self, data):
        rid = data.draw(st.sampled_from(sorted(self.applied)))
        frame, first = self.applied[rid]
        replay = self._call(self._connect(), frame)
        if self.closed:
            assert replay["type"] == "error" and replay["code"] == "unknown_session"
            return
        assert {**replay, "replayed": False} == first
        assert replay["replayed"] is True

    @rule(batch=batches)
    def mutate_while_solves_fail(self, batch):
        before = self.view
        self.failing = True
        try:
            reply = self._mutate(batch)
        finally:
            self.failing = False
        if reply["type"] == "error" and not self.closed:
            # nothing applied: a new subscriber still sees the old view
            self._subscribe()
            assert view_of(self.view) == view_of(before)

    @rule()
    def solve(self):
        rid, graph = self._fresh_id("solve"), self._graph()
        frame = {
            "type": "solve", "id": rid, "request_id": rid,
            "graph": protocol.encode_graph(graph),
        }
        reply = self._call(self.main, frame)
        assert reply["type"] == "result" and reply["record"]["status"] == "ok"
        state = IncrementalSolver(SolverConfig(), local_solve_batch).bootstrap(graph)
        assert reply["record"]["clique_number"] == state.omega
        self.solves[rid] = (frame, reply)
        while len(self.solves) > DEDUP_CAPACITY:
            self.solves.popitem(last=False)

    @precondition(lambda self: self.solves)
    @rule(data=st.data())
    def resend_solve(self, data):
        rid = data.draw(st.sampled_from(sorted(self.solves)))
        frame, first = self.solves[rid]
        before = self._stats()
        assert self._call(self._connect(), frame) == first
        after = self._stats()
        assert after["service"]["jobs"]["total"] == before["service"]["jobs"]["total"]
        replays = after["server"]["dedup.replays"]
        assert replays == before["server"].get("dedup.replays", 0) + 1
        self.solves.move_to_end(rid)

    @rule()
    def subscribe(self):
        self._subscribe()

    def _subscribe(self):
        """Subscribe on a dedicated connection; its first frame is the
        current view."""
        conn = self._connect()
        first = self._call(conn, {"type": "subscribe", "id": "sub", "session": "s"})
        if self.closed:
            assert first["type"] == "error" and first["code"] == "unknown_session"
            return
        assert first["type"] == "update" and first["epoch"] == self.epoch
        self.view = first
        self.subs.append([conn, self.epoch])

    @precondition(lambda self: not self.closed)
    @rule()
    def close(self):
        frame = {"type": "close-session", "id": self._fresh_id("close"), "session": "s"}
        reply = self._call(self.main, frame)
        assert reply["type"] == "session-closed" and reply["epoch"] == self.epoch
        for conn, last in self.subs:
            frame = conn.recv()
            while not frame.get("closed"):
                assert frame["type"] == "update" and frame["epoch"] > last
                last, frame = frame["epoch"], conn.recv()
            assert frame["epoch"] == self.epoch
        self.closed, self.subs, self.view = True, [], reply

    # ------------------------------------------------------------------
    @invariant()
    def newest_view_matches_a_fresh_bootstrap(self):
        graph = self._graph()
        state = IncrementalSolver(SolverConfig(), local_solve_batch).bootstrap(graph)
        assert self.view["epoch"] == self.epoch
        assert self.view["fingerprint"] == graph.fingerprint()
        assert self.view["omega"] == state.omega
        assert self.view["num_maximum_cliques"] == state.num_maximum_cliques
        assert self.view["witness"] == list(state.witness)

    @invariant()
    def gauges_stay_bounded(self):
        server = self._stats()["server"]
        assert server["dedup_entries"] == len(self.solves) <= DEDUP_CAPACITY
        assert server["subscribers"] == len(self.subs)
        assert server["sessions_open"] == (0 if self.closed else 1)


WireSessionMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestWireSessionMachine = WireSessionMachine.TestCase
