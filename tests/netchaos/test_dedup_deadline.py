"""Idempotent retries (``request_id`` dedup) and deadline propagation.

The wire-level halves of the retry-safety story: duplicated or resent
solves never execute twice (``service.jobs.total`` is the ground
truth), and an expired ``deadline_s`` budget is rejected retriable at
every layer instead of being computed for nobody.
"""

import time
from concurrent.futures import Future

import pytest

from repro.core.deadline import Deadline
from repro.errors import ServerError
from repro.server import ServerConfig, SolveClient, protocol
from repro.server.server import SolveServer, _DedupEntry
from repro.service import SolveService
from repro.service.request import SolveRequest
from tests.cluster.conftest import FakeBackend


def solve_frame(graph, wire_id, request_id=None, **extra):
    frame = {"type": "solve", "id": wire_id,
             "graph": protocol.encode_graph(graph)}
    if request_id is not None:
        frame["request_id"] = request_id
    frame.update(extra)
    return frame


def jobs_total(handle):
    return handle.server.service.stats_snapshot()["jobs"]["total"]


class TestDedup:
    def test_duplicate_in_flight_joins(self, make_server, raw_conn,
                                       community):
        """Two deliveries of one solve: one execution, two replies."""
        server = make_server()
        conn = raw_conn(server)
        conn.hello()
        frame = solve_frame(community, "w1", request_id="rq-join")
        conn.send(frame)
        conn.send(frame)  # the duplicate, racing the first
        first, second = conn.recv(), conn.recv()
        assert first["type"] == "result" and second["type"] == "result"
        assert first["record"]["clique_number"] == \
            second["record"]["clique_number"]
        assert jobs_total(server) == 1
        stats = server.server.stats
        joins = stats.get("dedup.joins")
        replays = stats.get("dedup.replays")
        assert joins + replays == 1  # dup landed in-flight or after
        assert stats.get("solves.accepted") == 1

    def test_resend_after_completion_replays(self, make_server, raw_conn,
                                             community):
        """A resend on a *fresh* connection replays the cached reply."""
        server = make_server()
        first_conn = raw_conn(server)
        first_conn.hello()
        first_conn.send(solve_frame(community, "w1", request_id="rq-replay"))
        first = first_conn.recv()
        first_conn.close()
        retry_conn = raw_conn(server)
        retry_conn.hello()
        retry_conn.send(solve_frame(community, "w9", request_id="rq-replay"))
        replayed = retry_conn.recv()
        assert replayed["type"] == "result"
        assert replayed["id"] == "w9"  # replay answers the *new* wire id
        assert replayed["record"] == first["record"]
        assert jobs_total(server) == 1
        assert server.server.stats.get("dedup.replays") == 1
        counters = server.server.service.tracer.counters_snapshot()
        assert counters.get("service.dedup.replays") == 1

    def test_distinct_request_ids_execute_separately(self, make_server,
                                                     raw_conn, community):
        server = make_server()
        conn = raw_conn(server)
        conn.hello()
        conn.send(solve_frame(community, "w1", request_id="rq-a"))
        conn.recv()
        conn.send(solve_frame(community, "w2", request_id="rq-b"))
        conn.recv()
        assert jobs_total(server) == 2

    def test_no_request_id_no_dedup(self, make_server, raw_conn, community):
        """Bare solves (no request_id) keep the old semantics."""
        server = make_server()
        conn = raw_conn(server)
        conn.hello()
        conn.send(solve_frame(community, "w1"))
        conn.recv()
        conn.send(solve_frame(community, "w2"))
        conn.recv()
        assert jobs_total(server) == 2
        assert len(server.server._dedup) == 0

    def test_table_is_bounded_lru(self, make_server, raw_conn, community):
        """Past capacity the oldest completed entry re-executes."""
        server = make_server(
            server_config=ServerConfig(port=0, dedup_capacity=2)
        )
        conn = raw_conn(server)
        conn.hello()
        for i in range(3):
            conn.send(solve_frame(community, f"w{i}", request_id=f"rq-{i}"))
            assert conn.recv()["type"] == "result"
        assert jobs_total(server) == 3
        # rq-0 was evicted when rq-2 arrived: a resend executes again
        conn.send(solve_frame(community, "w-again0", request_id="rq-0"))
        assert conn.recv()["type"] == "result"
        assert jobs_total(server) == 4
        # rq-2 is still resident: a resend replays
        conn.send(solve_frame(community, "w-again2", request_id="rq-2"))
        assert conn.recv()["type"] == "result"
        assert jobs_total(server) == 4
        assert server.server.stats.get("dedup.replays") == 1
        assert len(server.server._dedup) <= 2

    def test_prune_skips_in_flight_entries(self):
        """An in-flight head survives; the oldest completed entry goes."""
        server = SolveServer(SolveService(), ServerConfig(dedup_capacity=2))
        for key in ("running", "done-1", "done-2"):
            entry = _DedupEntry(key, Future(), None)
            if key != "running":
                entry.record = object()
            server._dedup[key] = entry
        server._prune_dedup()
        assert list(server._dedup) == ["running", "done-2"]
        assert server.stats.get("dedup.evictions") == 1

    def test_bad_request_id_rejected(self, make_server, raw_conn, community):
        server = make_server()
        conn = raw_conn(server)
        conn.hello()
        conn.send(solve_frame(community, "w1", request_id=""))
        reply = conn.recv()
        assert reply["type"] == "error" and reply["code"] == "bad_request"
        conn.send(solve_frame(community, "w2", request_id="x" * 300))
        reply = conn.recv()
        assert reply["type"] == "error" and reply["code"] == "bad_request"
        assert jobs_total(server) == 0


class TestDeadline:
    def test_expired_deadline_rejected_before_dispatch(self, make_server,
                                                       raw_conn, community):
        server = make_server()
        conn = raw_conn(server)
        conn.hello()
        conn.send(solve_frame(community, "w1", request_id="rq-dead",
                              deadline_s=1e-9))
        reply = conn.recv()
        assert reply["type"] == "error"
        assert reply["code"] == "deadline_exceeded"
        assert reply["retriable"] is True
        assert reply["exit_code"] == 3
        assert jobs_total(server) == 0  # never reached a device
        assert server.server.stats.get("rejects.deadline_exceeded") == 1
        counters = server.server.service.tracer.counters_snapshot()
        assert counters.get("service.deadline.rejected") == 1

    def test_live_deadline_still_solves(self, make_server, raw_conn,
                                        community):
        server = make_server()
        conn = raw_conn(server)
        conn.hello()
        conn.send(solve_frame(community, "w1", deadline_s=60.0))
        reply = conn.recv()
        assert reply["type"] == "result"
        assert reply["record"]["status"] == "ok"

    def test_invalid_deadline_is_bad_request(self, make_server, raw_conn,
                                             community):
        server = make_server()
        conn = raw_conn(server)
        conn.hello()
        conn.send(solve_frame(community, "w1", deadline_s="soon"))
        reply = conn.recv()
        assert reply["type"] == "error" and reply["code"] == "bad_request"

    def test_deadline_folds_into_solver_time_limit(self, community):
        """The service turns remaining budget into the solver's limit."""
        service = SolveService(cache_size=0, max_attempts=1)
        request = SolveRequest(
            graph=community,
            deadline=Deadline.from_limit(1e-5, label="tiny budget"),
        )
        time.sleep(0.01)  # not yet checked, but essentially exhausted
        service.submit(request)
        record = service.run()[0]
        assert record.status == "failed"
        assert "SolveTimeoutError" in record.error

    def test_client_budget_propagates_and_expires(self, community):
        """Remaining budget shrinks per attempt; spent budget fails fast."""
        seen = []

        def busy(frame):
            seen.append(frame.get("deadline_s"))
            return protocol.error_frame(
                "server_busy", "scripted busy",
                request_id=frame.get("id"), retry_after_s=0.05,
            )

        fake = FakeBackend(solve_reply=busy)
        try:
            client = SolveClient(port=fake.port, retries=100,
                                 backoff_s=0.02, backoff_max_s=0.1,
                                 jitter_seed=1)
            t0 = time.perf_counter()
            with pytest.raises(ServerError) as excinfo:
                client.solve(community, deadline_s=0.5)
            elapsed = time.perf_counter() - t0
            client.close()
        finally:
            fake.close()
        assert excinfo.value.code == "deadline_exceeded"
        assert excinfo.value.retriable is True
        assert excinfo.value.exit_code == 3
        assert elapsed < 5.0  # fails at ~0.5s, not after 100 retries
        assert len(seen) >= 2
        budgets = [b for b in seen if b is not None]
        assert budgets == sorted(budgets, reverse=True)
        assert all(0 < b <= 0.5 for b in budgets)


class TestBackoffDiscipline:
    def test_retry_after_is_clamped(self, community):
        """A server asking for a 60s pause gets backoff_max_s at most."""
        def busy(frame):
            return protocol.error_frame(
                "server_busy", "scripted busy",
                request_id=frame.get("id"), retry_after_s=60.0,
            )

        fake = FakeBackend(solve_reply=busy)
        try:
            client = SolveClient(port=fake.port, retries=2, backoff_s=0.05,
                                 backoff_max_s=0.2, jitter_seed=7)
            t0 = time.perf_counter()
            with pytest.raises(ServerError, match="busy"):
                client.solve(community)
            elapsed = time.perf_counter() - t0
            client.close()
        finally:
            fake.close()
        # two retries at exactly 0.2s each (clamped), nowhere near 120s
        assert elapsed < 5.0

    def test_jitter_is_seeded_and_bounded(self):
        a = SolveClient(jitter_seed=42)
        b = SolveClient(jitter_seed=42)
        c = SolveClient(jitter_seed=43)
        seq_a = [a._jitter(1.0) for _ in range(16)]
        seq_b = [b._jitter(1.0) for _ in range(16)]
        seq_c = [c._jitter(1.0) for _ in range(16)]
        assert seq_a == seq_b
        assert seq_a != seq_c
        assert all(0.5 <= v < 1.0 for v in seq_a)

    def test_request_id_stable_across_retries(self, community):
        """Every resend of one solve carries the same request_id."""
        seen = []
        replies = iter(["draining", "ok"])

        def flaky(frame):
            seen.append(frame.get("request_id"))
            if next(replies) == "draining":
                return protocol.error_frame(
                    "draining", "scripted drain",
                    request_id=frame.get("id"), retry_after_s=0.01,
                )
            return {"type": "result", "id": frame.get("id"),
                    "record": {"status": "ok", "clique_number": 1},
                    "exit_code": 0}

        fake = FakeBackend(solve_reply=flaky)
        try:
            client = SolveClient(port=fake.port, retries=3, backoff_s=0.01,
                                 jitter_seed=0)
            reply = client.solve(community)
            client.close()
        finally:
            fake.close()
        assert reply["record"]["status"] == "ok"
        assert len(seen) == 2
        assert seen[0] == seen[1]
        assert seen[0]  # non-empty
