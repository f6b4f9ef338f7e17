"""End-to-end server tests: parity, backpressure, drain, and abuse.

The abuse section is the acceptance gate: oversized frames, garbage
bytes, rate-limit bursts, and mid-solve disconnects must never
produce an unhandled exception or wedge the solve worker, and a
concurrent ``stats`` frame must answer promptly even while a slow
solve is in flight.

The connection-layer cases (handshake, framing, unknown types, the
connection cap, refusal while draining) run each body twice through
``make_endpoints``: against a server and against a router, which share
that layer.
"""

import threading
import time

import pytest

from repro.errors import ServerError
from repro.server import ServerConfig, protocol
from repro.service import SolveService

from .conftest import TRIANGLE_EDGES, gz_payload

TRIANGLE = {"kind": "edges", "edges": TRIANGLE_EDGES}
CAP = protocol.MAX_INLINE_VERTICES


def _slow_service(delay_s, **kwargs):
    """A service whose every launch sleeps: deterministic slowness."""
    return SolveService(
        fault_hook=lambda request, attempt, config: time.sleep(delay_s),
        **kwargs,
    )


def _collect(conn, n, deadline_s=20.0):
    """Read ``n`` frames from a RawConn (order-insensitive callers)."""
    frames = []
    end = time.monotonic() + deadline_s
    while len(frames) < n:
        assert time.monotonic() < end, f"timed out after {frames}"
        frame = conn.recv()
        assert frame is not None, f"unexpected EOF after {frames}"
        frames.append(frame)
    return frames


class TestSolvePath:
    def test_parity_with_local_service(self, server, make_client, community):
        local = SolveService().solve(community)
        client = make_client(server)
        reply = client.solve(community, label="community")
        record = reply["record"]
        assert reply["exit_code"] == 0
        assert record["status"] == "ok"
        assert record["clique_number"] == local.clique_number
        assert record["num_maximum_cliques"] == local.num_maximum_cliques
        local_rows = sorted(tuple(int(v) for v in row) for row in local.result.cliques)
        wire_rows = sorted(tuple(row) for row in reply["cliques"])
        assert wire_rows == local_rows

    def test_dataset_name_resolved_server_side(self, server, make_client):
        reply = make_client(server).solve("ca-team-1k")
        assert reply["record"]["status"] == "ok"
        assert reply["record"]["clique_number"] == 9

    def test_cache_hit_across_transport(self, server, make_client, community):
        client = make_client(server)
        first = client.solve(community)
        second = client.solve(community)
        assert first["record"]["cache_hit"] is False
        assert second["record"]["cache_hit"] is True
        assert second["cliques"] == first["cliques"]

    def test_max_report_caps_reply_not_count(self, server, make_client, community):
        client = make_client(server)
        full = client.solve(community)
        capped = client.solve(community, max_report=1)
        assert len(capped["cliques"]) == 1
        assert (
            capped["record"]["num_maximum_cliques"]
            == full["record"]["num_maximum_cliques"]
        )

    def test_bad_config_raises_server_error(self, server, make_client, community):
        client = make_client(server)
        with pytest.raises(ServerError) as excinfo:
            client.solve(community, config={"heuristic": "zzz"})
        assert excinfo.value.code == "bad_request"
        assert not excinfo.value.retriable

    def test_stats_frame_shape(self, server, make_client, community):
        client = make_client(server)
        client.solve(community)
        stats = client.stats()
        assert stats["server"]["solves.accepted"] == 1
        assert stats["server"]["connections_open"] >= 1
        assert stats["server"]["latency"]["count"] == 1
        assert stats["service"]["jobs"]["total"] == 1
        assert stats["service"]["jobs"]["ok"] == 1
        assert stats["service"]["cache"]["misses"] == 1
        assert stats["service"]["pool"]["devices"] == 1
        assert isinstance(stats["counters"], dict)

    def test_pipelined_solves_one_connection(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        for i in range(4):
            conn.send({"type": "solve", "id": f"r{i}", "graph": TRIANGLE})
        frames = _collect(conn, 4)
        assert {f["id"] for f in frames} == {"r0", "r1", "r2", "r3"}
        assert all(f["type"] == "result" for f in frames)
        assert all(f["record"]["clique_number"] == 3 for f in frames)


class TestStatusAndCancel:
    def test_status_lifecycle(self, make_server, raw_conn):
        server = make_server(service=_slow_service(0.4))
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "solve", "id": "job", "graph": TRIANGLE})
        conn.send({"type": "status", "id": "job"})
        status = conn.recv()
        assert status["type"] == "status"
        assert status["state"] in ("queued", "running")
        result = conn.recv()
        assert result["type"] == "result" and result["id"] == "job"
        conn.send({"type": "status", "id": "job"})
        assert conn.recv()["state"] in ("done", "unknown")

    def test_status_unknown_id(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "status", "id": "nope"})
        assert conn.recv()["state"] == "unknown"

    def test_cancel_queued_job(self, make_server, raw_conn):
        server = make_server(service=_slow_service(0.4))
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "solve", "id": "a", "graph": TRIANGLE})
        time.sleep(0.15)  # let the worker take job a in-flight
        conn.send({"type": "solve", "id": "b", "graph": TRIANGLE})
        time.sleep(0.05)  # let b reach the bridge queue
        conn.send({"type": "cancel", "id": "b"})
        frames = _collect(conn, 3)
        by_key = {(f["type"], f.get("id")): f for f in frames}
        cancel_reply = by_key[("status", "b")]
        assert cancel_reply["cancelled"] is True
        assert cancel_reply["state"] == "cancelled"
        error = by_key[("error", "b")]
        assert error["code"] == "cancelled"
        assert by_key[("result", "a")]["record"]["status"] == "ok"

    def test_cancel_unknown_id(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "cancel", "id": "ghost"})
        reply = conn.recv()
        assert reply["cancelled"] is False and reply["state"] == "unknown"


class TestBackpressure:
    def test_rate_limit_burst(self, make_server, raw_conn):
        server = make_server(
            config=ServerConfig(port=0, rate=0.01, burst=1),
        )
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "solve", "id": "ok", "graph": TRIANGLE})
        conn.send({"type": "solve", "id": "fast", "graph": TRIANGLE})
        frames = _collect(conn, 2)
        by_key = {(f["type"], f.get("id")): f for f in frames}
        limited = by_key[("error", "fast")]
        assert limited["code"] == "rate_limited"
        assert limited["retriable"] is True
        assert limited["retry_after_s"] > 0
        assert by_key[("result", "ok")]["record"]["status"] == "ok"

    def test_queue_full_is_server_busy(self, make_server, raw_conn):
        server = make_server(
            service=_slow_service(0.6),
            config=ServerConfig(port=0, queue_depth=1),
        )
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "solve", "id": "a", "graph": TRIANGLE})
        time.sleep(0.2)  # a is now in-flight, the queue is empty
        conn.send({"type": "solve", "id": "b", "graph": TRIANGLE})
        time.sleep(0.05)  # b occupies the single queue slot
        conn.send({"type": "solve", "id": "c", "graph": TRIANGLE})
        frames = _collect(conn, 3)
        by_key = {(f["type"], f.get("id")): f for f in frames}
        busy = by_key[("error", "c")]
        assert busy["code"] == "server_busy" and busy["retriable"] is True
        assert by_key[("result", "a")]["record"]["status"] == "ok"
        assert by_key[("result", "b")]["record"]["status"] == "ok"

    def test_duplicate_in_flight_id_rejected(self, make_server, raw_conn):
        server = make_server(service=_slow_service(0.4))
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "solve", "id": "dup", "graph": TRIANGLE})
        time.sleep(0.05)
        conn.send({"type": "solve", "id": "dup", "graph": TRIANGLE})
        frames = _collect(conn, 2)
        codes = sorted(f["type"] for f in frames)
        assert codes == ["error", "result"]
        error = next(f for f in frames if f["type"] == "error")
        assert error["code"] == "bad_request"

    def test_connection_cap(self, make_endpoints, raw_conn, make_client, community):
        for endpoint in make_endpoints(max_conns=1):
            client = make_client(endpoint, retries=0)
            client.connect()
            extra = raw_conn(endpoint)
            refused = extra.recv()
            assert refused["type"] == "error"
            assert refused["code"] == "too_many_connections"
            assert refused["retriable"] is True
            assert extra.recv() is None  # the endpoint closed the socket
            # the occupant is unaffected
            assert client.solve(community)["record"]["status"] == "ok"


class TestHandshake:
    def test_solve_before_hello_rejected(self, make_endpoints, raw_conn):
        for endpoint in make_endpoints():
            conn = raw_conn(endpoint)
            conn.send({"type": "solve", "id": "r", "graph": TRIANGLE})
            reply = conn.recv()
            assert reply["code"] == "handshake_required"
            assert conn.recv() is None

    def test_wrong_protocol_rejected(self, make_endpoints, raw_conn):
        for endpoint in make_endpoints():
            conn = raw_conn(endpoint)
            conn.send({"type": "hello", "protocol": "repro-wire/99"})
            assert conn.recv()["code"] == "unsupported_protocol"
            assert conn.recv() is None

    def test_hello_reply_shape(self, server, raw_conn):
        reply = raw_conn(server).hello()
        assert reply["protocol"] == protocol.PROTOCOL
        assert reply["server"].startswith("repro/")
        assert reply["max_frame_bytes"] == protocol.MAX_FRAME_BYTES

    def test_redundant_hello_answered(self, make_endpoints, raw_conn):
        for endpoint in make_endpoints():
            conn = raw_conn(endpoint)
            conn.hello()
            conn.send({"type": "hello", "protocol": protocol.PROTOCOL})
            assert conn.recv()["type"] == "hello"


class TestAbuse:
    def test_fragmented_frames_reassembled(self, server, raw_conn):
        conn = raw_conn(server)
        hello = protocol.encode_frame(
            {"type": "hello", "protocol": protocol.PROTOCOL}
        )
        for i in range(0, len(hello), 7):
            conn.send_bytes(hello[i : i + 7])
            time.sleep(0.01)
        assert conn.recv()["type"] == "hello"
        solve = protocol.encode_frame(
            {"type": "solve", "id": "frag", "graph": TRIANGLE}
        )
        conn.send_bytes(solve[: len(solve) // 2])
        time.sleep(0.05)
        conn.send_bytes(solve[len(solve) // 2 :])
        result = conn.recv()
        assert result["type"] == "result"
        assert result["record"]["clique_number"] == 3

    def test_garbage_line_keeps_connection(self, make_endpoints, raw_conn):
        for endpoint in make_endpoints():
            conn = raw_conn(endpoint)
            conn.hello()
            conn.send_bytes(b"\xff\xfe\x00 utter garbage\n")
            assert conn.recv()["code"] == "bad_frame"
            conn.send({"type": "stats"})
            assert conn.recv()["type"] == "stats"  # still fully usable

    def test_garbage_before_handshake_closes(self, make_endpoints, raw_conn):
        for endpoint in make_endpoints():
            conn = raw_conn(endpoint)
            conn.send_bytes(b"GET / HTTP/1.1\r\n")
            assert conn.recv()["code"] == "bad_frame"
            assert conn.recv() is None

    def test_unknown_type_keeps_connection(self, make_endpoints, raw_conn):
        for endpoint in make_endpoints():
            conn = raw_conn(endpoint)
            conn.hello()
            conn.send({"type": "frobnicate", "id": "x"})
            error = conn.recv()
            assert error["code"] == "unknown_type" and error["id"] == "x"
            conn.send({"type": "stats"})
            assert conn.recv()["type"] == "stats"

    def test_oversized_frame_closes_connection(self, make_endpoints, raw_conn):
        for endpoint in make_endpoints(max_frame_bytes=4096):
            conn = raw_conn(endpoint)
            conn.hello()
            conn.send_bytes(
                b"{\"type\":\"solve\",\"label\":\"" + b"x" * 8192 + b"\"}\n"
            )
            assert conn.recv()["code"] == "frame_too_large"
            assert conn.recv() is None
            # the endpoint keeps accepting fresh connections afterwards
            assert raw_conn(endpoint).hello()["type"] == "hello"

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "solve", "graph": {"kind": "edges", "edges": [[0, CAP]]}},
            {"type": "solve", "graph": gz_payload(f"0 1\n1 {CAP}\n")},
            {"type": "solve", "graph": gz_payload(f"# |V|={CAP + 1}\n0 1\n")},
            {"type": "mutate", "session": "s", "insert": [[CAP, 0]]},
            # one edge, but its lines inflate past the text cap
            {
                "type": "solve",
                "graph": gz_payload(
                    "0 1\n" * (protocol.MAX_INLINE_TEXT_BYTES // 4 + 1)
                ),
            },
        ],
        ids=[
            "edges-ids", "edgelist-gz-ids", "edgelist-gz-header", "mutate-ids",
            "edgelist-gz-text",
        ],
    )
    def test_vertex_cap_refused_connection_survives(self, server, raw_conn, frame):
        conn = raw_conn(server)
        conn.hello()
        conn.send({**frame, "id": "big"})
        reply = conn.recv()
        assert reply["type"] == "error" and reply["id"] == "big"
        assert reply["code"] == "bad_request"
        conn.send({"type": "solve", "id": "small", "graph": TRIANGLE})
        assert conn.recv()["record"]["clique_number"] == 3

    def test_refused_timeout_spares_the_solves_batched_with_it(
        self, make_server, raw_conn
    ):
        server = make_server(service=_slow_service(0.4))
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "solve", "id": "busy", "graph": TRIANGLE})
        time.sleep(0.15)  # busy holds the worker: the next two queue together
        # a graph nobody solved yet: a cache hit would never read the budget
        edge = {"kind": "edges", "edges": [[0, 1]]}
        conn.send({"type": "solve", "id": "bad", "graph": edge, "timeout_s": 10**400})
        conn.send({"type": "solve", "id": "good", "graph": "road-grid-60"})
        replies = {frame["id"]: frame for frame in _collect(conn, 3)}
        assert replies["bad"]["code"] == "bad_request"
        assert replies["good"]["record"]["status"] == "ok"
        assert replies["busy"]["record"]["status"] == "ok"

    def test_mid_solve_disconnect_does_not_wedge(
        self, make_server, make_client, raw_conn, community
    ):
        server = make_server(service=_slow_service(0.5))
        rude = raw_conn(server)
        rude.hello()
        rude.send({"type": "solve", "id": "a", "graph": TRIANGLE})
        time.sleep(0.15)  # a is in-flight on the worker
        rude.send({"type": "solve", "id": "b", "graph": TRIANGLE})
        time.sleep(0.05)  # b is queued
        rude.close()  # vanish without reading anything
        # a concurrent stats frame answers promptly despite the
        # in-flight solve (the acceptance criterion from the issue)
        client = make_client(server)
        t0 = time.monotonic()
        stats = client.stats()
        assert time.monotonic() - t0 < 1.0
        assert stats["server"]["in_flight"] + stats["server"]["queue_depth"] >= 0
        # the worker survives and serves the next client
        reply = client.solve(community)
        assert reply["record"]["status"] == "ok"
        # the queued job b was cancelled rather than run for a ghost
        stats = client.stats()
        assert stats["server"].get("solves.cancelled_on_disconnect", 0) >= 1


#: refusals a server and a router must answer alike: the frames sent in
#: one write, then the refused frame's code and echoed id
REFUSED = {
    "non-string-id": (
        [{"type": "solve", "id": 5, "graph": TRIANGLE}], "bad_request", None
    ),
    "status-without-id": ([{"type": "status"}], "bad_request", None),
    "subscribe-without-id": (
        [{"type": "subscribe", "session": "s"}], "bad_request", None
    ),
    "id-in-flight": (
        [{"type": "solve", "id": "dup", "graph": TRIANGLE}] * 2, "bad_request", "dup"
    ),
    "bad-session-id": (
        [{"type": "close-session", "id": "c", "session": ""}], "bad_request", "c"
    ),
    "unknown-type": ([{"type": "frobnicate", "id": "x"}], "unknown_type", "x"),
}


class TestRefusals:
    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_server_and_router_refuse_alike(self, make_endpoints, raw_conn, case):
        sent, code, rid = REFUSED[case]
        answers = []
        for endpoint in make_endpoints():
            conn = raw_conn(endpoint)
            conn.hello()
            conn.send({"type": "stats"})
            before = conn.recv()
            section = "server" if "server" in before else "router"
            conn.send_bytes(b"".join(protocol.encode_frame(f) for f in sent))
            # an accepted solve answers too; the refusal is the error
            frames = _collect(conn, len(sent))
            (error,) = [f for f in frames if f["type"] == "error"]
            answers.append(
                (error["code"], error["retriable"], error["exit_code"],
                 error.get("id"), "retry_after_s" in error)
            )
            # the connection survives, and the refusal counted once
            conn.send({"type": "stats"})
            after = conn.recv()
            key = f"rejects.{code}"
            assert after[section].get(key, 0) == before[section].get(key, 0) + 1
        assert answers == [(code, False, 1, rid, False)] * 2


class TestDrain:
    def test_shutdown_frame_drains(self, make_server, make_client, community):
        server = make_server()
        client = make_client(server)
        assert client.solve(community)["record"]["status"] == "ok"
        bye = client.shutdown()
        assert bye["type"] == "bye"
        server._thread.join(15.0)
        assert not server._thread.is_alive()

    def test_in_flight_finishes_queued_rejected(self, make_server, raw_conn):
        server = make_server(service=_slow_service(0.5))
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "solve", "id": "a", "graph": TRIANGLE})
        time.sleep(0.2)  # a in-flight
        conn.send({"type": "solve", "id": "b", "graph": TRIANGLE})
        time.sleep(0.05)  # b queued
        conn.send({"type": "shutdown"})
        frames = _collect(conn, 3)
        by_key = {(f["type"], f.get("id")): f for f in frames}
        assert by_key[("bye", None)]
        rejected = by_key[("error", "b")]
        assert rejected["code"] == "draining" and rejected["retriable"] is True
        # the in-flight result is still delivered before the close
        assert by_key[("result", "a")]["record"]["status"] == "ok"
        server._thread.join(15.0)
        assert not server._thread.is_alive()

    def test_new_connections_refused_while_draining(
        self, make_endpoints, raw_conn
    ):
        for endpoint in make_endpoints(lambda: _slow_service(0.8)):
            conn = raw_conn(endpoint)
            conn.hello()
            conn.send({"type": "solve", "id": "a", "graph": TRIANGLE})
            time.sleep(0.2)
            conn.send({"type": "shutdown"})
            assert conn.recv()["type"] == "bye"
            # drain is in progress while a's solve sleeps; a newcomer is
            # turned away with a retriable error (or plain refusal once
            # the listener socket is fully closed)
            try:
                late = raw_conn(endpoint)
                refused = late.recv()
                assert refused is None or refused["code"] in (
                    "draining",
                    "too_many_connections",
                )
            except OSError:
                pass  # listener already closed: equally acceptable

    def test_solve_while_draining_rejected(self, make_server, raw_conn):
        server = make_server(service=_slow_service(0.8))
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "solve", "id": "a", "graph": TRIANGLE})
        time.sleep(0.2)
        conn.send({"type": "shutdown"})
        conn.send({"type": "solve", "id": "late", "graph": TRIANGLE})
        frames = _collect(conn, 3)
        by_key = {(f["type"], f.get("id")): f for f in frames}
        assert by_key[("error", "late")]["code"] == "draining"
        assert by_key[("result", "a")]["record"]["status"] == "ok"


class TestClientRetry:
    def test_retries_rate_limited_until_success(self, make_server, make_client):
        server = make_server(config=ServerConfig(port=0, rate=5.0, burst=1))
        client = make_client(server, retries=5)
        from repro.graph import generators as gen

        graph = gen.erdos_renyi(12, 0.5, seed=1)
        # burst of 1: the second call must eat a rate_limited frame and
        # retry after the server-provided delay
        assert client.solve(graph)["record"]["status"] == "ok"
        assert client.solve(graph)["record"]["status"] == "ok"

    def test_unreachable_raises_retriable(self):
        from repro.server import SolveClient

        client = SolveClient(port=1, retries=0, backoff_s=0.01)
        with pytest.raises(ServerError) as excinfo:
            client.connect()
        assert excinfo.value.code == "unreachable"
        assert excinfo.value.retriable

    def test_retries_bound_the_connection_attempts(self, monkeypatch):
        import socket

        from repro.server import SolveClient

        attempts = []
        connect = socket.create_connection

        def counting(*args, **kwargs):
            attempts.append(args[0])
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting)
        client = SolveClient(port=1, retries=3, backoff_s=0.001, backoff_max_s=0.001)
        with pytest.raises(ServerError) as excinfo:
            client.stats()
        assert excinfo.value.code == "unreachable"
        assert len(attempts) == 4  # the request's loop, not one inside another

    def test_concurrent_clients_all_served(self, server, make_client):
        from repro.graph import generators as gen

        graphs = [gen.erdos_renyi(20, 0.3, seed=s) for s in range(4)]
        results = [None] * 4
        errors = []

        def _worker(i):
            try:
                client = make_client(server)
                results[i] = client.solve(graphs[i])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=_worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors
        assert all(r is not None and r["record"]["status"] == "ok" for r in results)


class TestChaosThroughServer:
    """PR-3 fault plans behind the wire: clients only ever see clean
    results — the service's transparent retries absorb every injected
    transient fault, and the answer matches the fault-free run."""

    def test_fault_run_matches_fault_free(self, make_server, make_client, community):
        from repro.gpusim import FaultEvent, FaultPlan
        from repro.gpusim.spec import DeviceSpec

        spec = DeviceSpec(memory_bytes=8 * (1 << 20))
        config = {"window_size": 256}

        clean = make_server(SolveService(devices=1, spec=spec, cache_size=0))
        reply_clean = make_client(clean).solve(community, config=config)
        assert reply_clean["record"]["status"] == "ok"

        plan = FaultPlan(
            [
                FaultEvent(0, "launch", 7, "transient-kernel"),
                FaultEvent(0, "alloc", 11, "flaky-alloc"),
            ]
        )
        chaos = make_server(
            SolveService(devices=1, spec=spec, cache_size=0, fault_plan=plan)
        )
        reply_chaos = make_client(chaos).solve(community, config=config)

        rc, rf = reply_clean["record"], reply_chaos["record"]
        assert rf["status"] == "ok"
        assert rf["clique_number"] == rc["clique_number"]
        assert rf["num_maximum_cliques"] == rc["num_maximum_cliques"]
        assert rf["enumerated_all"] == rc["enumerated_all"]
        assert reply_chaos["cliques"] == reply_clean["cliques"]
        # at least one injected fault actually fired and was absorbed
        assert rf["transient_retries"] >= 1, rf
        assert reply_chaos["exit_code"] == 0
