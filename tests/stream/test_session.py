"""Unit tests for GraphSession / SessionManager semantics."""

import pytest

from repro.core.config import SolverConfig
from repro.errors import SessionError
from repro.graph import build, from_edge_list
from repro.graph import generators as gen
from repro.stream import GraphSession, SessionManager, local_solve_batch, mutable
from repro.trace import CounterTracer

TRIANGLE = [(0, 1), (1, 2), (0, 2), (2, 3)]


def make_session(sid="s1", edges=TRIANGLE, **kwargs):
    return GraphSession(sid, from_edge_list(edges), **kwargs)


class TestGraphSession:
    def test_open_view_is_epoch_zero_full_answer(self):
        session = make_session()
        view = session.view
        assert view.epoch == 0
        assert view.omega == 3
        assert view.witness == (0, 1, 2)
        assert view.path == "open"
        assert not view.replayed
        assert view.session == "s1"

    def test_apply_advances_epoch_and_answer(self):
        session = make_session()
        view = session.apply(inserts=[(0, 3), (1, 3)])
        assert view.epoch == 1
        assert view.omega == 4
        assert view.witness == (0, 1, 2, 3)
        assert view.session == "s1"
        assert session.view is view

    def test_view_to_dict_round_trips_json_types(self):
        view = make_session().view
        doc = view.to_dict()
        assert doc["witness"] == [0, 1, 2]
        assert all(isinstance(v, int) for v in doc["witness"])
        assert set(doc) == {
            "session", "epoch", "omega", "num_maximum_cliques", "witness",
            "fingerprint", "num_vertices", "num_edges", "path", "replayed",
        }

    def test_duplicate_request_id_replays_without_mutating(self):
        tracer = CounterTracer()
        session = make_session(tracer=tracer)
        first = session.apply(inserts=[(0, 3)], request_id="rq-1")
        replay = session.apply(inserts=[(0, 3)], request_id="rq-1")
        assert session.epoch == 1
        assert replay.replayed and not first.replayed
        assert replay.epoch == first.epoch
        assert replay.fingerprint == first.fingerprint
        assert tracer.counters_snapshot().get("stream.replays") == 1

    def test_distinct_request_ids_apply_separately(self):
        session = make_session()
        session.apply(inserts=[(0, 3)], request_id="rq-1")
        session.apply(deletes=[(0, 3)], request_id="rq-2")
        assert session.epoch == 2

    def test_dedup_table_is_bounded(self):
        session = make_session(dedup_capacity=2)
        for i in range(4):
            session.apply(inserts=[(0, 4 + i)], request_id=f"rq-{i}")
        # rq-0 evicted: replaying it applies as a fresh (no-op) batch
        view = session.apply(inserts=[(0, 4)], request_id="rq-0")
        assert not view.replayed
        assert session.epoch == 5

    def test_failed_solve_rolls_back_graph_delta(self):
        calls = []

        def flaky(jobs):
            calls.append(len(jobs))
            if len(calls) == 2:  # bootstrap succeeds, first apply fails
                raise RuntimeError("backend exploded")
            return local_solve_batch(jobs)

        session = make_session(solve_batch=flaky, dirty_threshold=50.0)
        before = session.view
        with pytest.raises(RuntimeError, match="backend exploded"):
            session.apply(inserts=[(0, 3), (1, 3)], request_id="rq-x")
        assert session.epoch == 0
        assert session.view is before
        assert not session.mutable.has_edge(0, 3)
        # the failed request_id was not recorded: the retry executes
        retry = session.apply(inserts=[(0, 3), (1, 3)], request_id="rq-x")
        assert retry.epoch == 1 and retry.omega == 4 and not retry.replayed

    def test_rollback_past_a_compaction_keeps_the_epoch_graph(self):
        calls = []

        def flaky(jobs):
            calls.append(len(jobs))
            if len(calls) == 2:
                raise RuntimeError("backend exploded")
            return local_solve_batch(jobs)

        session = make_session(solve_batch=flaky, compact_every=1)
        epoch0 = session.view.fingerprint
        # the batch compacts into a 7-vertex base before the solve fails;
        # back in the 4-vertex universe (0, 6) and (1, 2) share a key
        with pytest.raises(RuntimeError, match="backend exploded"):
            session.apply(inserts=[(0, 6), (1, 6)])
        graph = session.mutable.materialize()
        assert graph.num_edges == 4 and graph.has_edge(1, 2)
        assert graph.fingerprint() == epoch0
        view = session.apply(inserts=[(0, 3)])
        assert view.fingerprint == from_edge_list(TRIANGLE + [(0, 3)]).fingerprint()

    def test_mutations_never_rebuild_the_whole_graph(self, monkeypatch):
        graph = gen.caveman_social(6, 12, p_in=0.6, seed=4)
        n = graph.num_vertices
        closures = []  # absent edges that each close a triangle
        for w in range(n):
            u, *others = graph.neighbors(w).tolist()
            v = next((v for v in others if not graph.has_edge(u, v)), None)
            if v is not None and (u, v) not in closures:
                closures.append((u, v))
        session = GraphSession("cave", graph)
        src, dst = graph.to_edge_list()
        edges = set(zip(src.tolist(), dst.tolist()))

        def rebuild(*args, **kwargs):
            raise AssertionError("an epoch rebuilt the CSR from its edge list")

        monkeypatch.setattr(build, "from_edge_array", rebuild)
        monkeypatch.setattr(mutable, "from_edge_array", rebuild)
        for i in range(10):
            # a triangle closure plus an edge to a vertex past the universe,
            # whose previous one goes again
            inserts = [closures[i], (closures[i][0], n + i)]
            deletes = [(closures[i - 1][0], n + i - 1)] if i else []
            view = session.apply(inserts, deletes)
            assert view.path == "incremental"
            edges = (edges | set(inserts)) - set(deletes)
        assert session.stats()["localized_solves"] > 0
        monkeypatch.undo()
        rebuilt = from_edge_list(sorted(edges), num_vertices=n + 10)
        assert view.fingerprint == rebuilt.fingerprint()

    def test_bad_mutation_is_a_session_error(self):
        session = make_session()
        with pytest.raises(SessionError, match="bad mutation batch"):
            session.apply(inserts=[(0, 0)])
        assert session.epoch == 0

    def test_closed_session_rejects_mutations(self):
        session = make_session()
        session.close()
        with pytest.raises(SessionError) as exc_info:
            session.apply(inserts=[(0, 3)])
        assert exc_info.value.code == "unknown_session"

    def test_non_max_clique_config_rejected(self):
        with pytest.raises(SessionError, match="not streamable"):
            make_session(config=SolverConfig(problem="k-clique-count", k=3))

    def test_preset_omega_floor_rejected(self):
        with pytest.raises(SessionError, match="omega_floor"):
            make_session(config=SolverConfig(omega_floor=2))

    def test_stats_counters(self):
        session = make_session()
        session.apply(inserts=[(0, 3)])
        stats = session.stats()
        assert stats["epoch"] == 1
        assert stats["incremental_batches"] + stats["full_solves"] >= 1
        assert stats["tracking"] is True


class TestSessionManager:
    def test_create_get_close_lifecycle(self):
        manager = SessionManager()
        session = manager.create(make_session("a"))
        assert len(manager) == 1 and "a" in manager
        assert manager.get("a") is session
        closed = manager.close("a")
        assert closed is session and session.closed
        assert len(manager) == 0

    def test_duplicate_create_is_session_exists(self):
        manager = SessionManager()
        manager.create(make_session("a"))
        with pytest.raises(SessionError) as exc_info:
            manager.create(make_session("a"))
        assert exc_info.value.code == "session_exists"

    def test_cap_is_too_many_sessions(self):
        manager = SessionManager(max_sessions=1)
        manager.create(make_session("a"))
        with pytest.raises(SessionError) as exc_info:
            manager.create(make_session("b"))
        assert exc_info.value.code == "too_many_sessions"
        # closing frees the slot
        manager.close("a")
        manager.create(make_session("b"))

    def test_unknown_session_code(self):
        manager = SessionManager()
        with pytest.raises(SessionError) as exc_info:
            manager.get("nope")
        assert exc_info.value.code == "unknown_session"

    def test_ids_sorted(self):
        manager = SessionManager()
        for sid in ("z", "a", "m"):
            manager.create(make_session(sid))
        assert manager.ids() == ["a", "m", "z"]
