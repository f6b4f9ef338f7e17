"""Streaming session frames over the real wire.

Covers the four new ``repro-wire/1`` frame types end to end against a
background :class:`ServerThread`: open / mutate / subscribe / close,
idempotent-retry replay of both opens and mutations, the streaming
error codes, session residency across client disconnects, and the
epoch-monotone push contract subscribers rely on.
"""

import threading

import pytest

from repro.errors import ServerError
from repro.graph import from_edge_list
from repro.server import SolveClient, protocol

TRIANGLE_EDGES = [(0, 1), (1, 2), (0, 2), (2, 3)]


def triangle():
    return from_edge_list(TRIANGLE_EDGES)


class TestSessionLifecycle:
    def test_open_mutate_close_round_trip(self, server, make_client):
        client = make_client(server)
        opened = client.open_session(triangle(), session="s1")
        assert opened["type"] == "session-opened"
        assert opened["epoch"] == 0 and opened["omega"] == 3
        assert opened["path"] == "open"

        mutated = client.mutate("s1", insert=[(0, 3), (1, 3)])
        assert mutated["type"] == "mutated"
        assert mutated["epoch"] == 1 and mutated["omega"] == 4
        assert mutated["witness"] == [0, 1, 2, 3]

        closed = client.close_session("s1")
        assert closed["type"] == "session-closed"
        assert closed["epoch"] == 1 and closed["omega"] == 4

    def test_hello_advertises_streaming(self, server, make_client):
        client = make_client(server)
        hello = client.connect()
        assert hello["streaming"] is True

    def test_session_survives_client_disconnect(self, server, make_client):
        make_client(server).open_session(triangle(), session="resident")
        # a brand-new connection mutates the same resident session
        fresh = make_client(server)
        mutated = fresh.mutate("resident", insert=[(0, 3), (1, 3)])
        assert mutated["epoch"] == 1 and mutated["omega"] == 4

    def test_generated_session_ids_are_unique(self, server, make_client):
        client = make_client(server)
        first = client.open_session(triangle())
        second = client.open_session(triangle())
        assert first["session"] != second["session"]

    def test_sessions_open_gauge(self, server, make_client):
        client = make_client(server)
        client.open_session(triangle(), session="g1")
        assert client.stats()["server"]["sessions_open"] == 1
        client.close_session("g1")
        assert client.stats()["server"]["sessions_open"] == 0


class TestIdempotency:
    def test_duplicate_open_with_same_request_id_replays(self, server,
                                                         raw_conn):
        conn = raw_conn(server)
        conn.hello()
        frame = {
            "type": "open-session", "id": "rq-open", "request_id": "rq-open",
            "session": "dup", "graph": protocol.encode_graph(triangle()),
        }
        conn.send(frame)
        first = conn.recv()
        assert first["type"] == "session-opened"
        conn.send(frame)
        replay = conn.recv()
        assert replay["type"] == "session-opened"
        assert replay["epoch"] == first["epoch"] == 0
        assert replay["fingerprint"] == first["fingerprint"]

    def test_open_of_existing_sid_with_new_request_id_rejected(
            self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        graph = protocol.encode_graph(triangle())
        conn.send({"type": "open-session", "id": "rq-a", "request_id": "rq-a",
                   "session": "dup2", "graph": graph})
        assert conn.recv()["type"] == "session-opened"
        conn.send({"type": "open-session", "id": "rq-b", "request_id": "rq-b",
                   "session": "dup2", "graph": graph})
        reply = conn.recv()
        assert reply["type"] == "error"
        assert reply["code"] == "session_exists"
        assert reply["retriable"] is False

    def test_duplicate_mutate_replays_without_reapplying(self, server,
                                                         raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "open-session", "id": "rq-o", "session": "m1",
                   "graph": protocol.encode_graph(triangle())})
        assert conn.recv()["type"] == "session-opened"
        mutate = {"type": "mutate", "id": "rq-m", "request_id": "rq-m",
                  "session": "m1", "insert": [[0, 3], [1, 3]]}
        conn.send(mutate)
        first = conn.recv()
        assert first["type"] == "mutated" and first["epoch"] == 1
        assert first["replayed"] is False
        conn.send(mutate)
        replay = conn.recv()
        assert replay["type"] == "mutated"
        assert replay["epoch"] == 1  # NOT 2: the batch applied once
        assert replay["replayed"] is True
        assert replay["fingerprint"] == first["fingerprint"]

    def test_pipelined_duplicate_mutate_joins_in_flight_apply(self, server,
                                                              raw_conn):
        """Both copies in one segment: the second replays, not reapplies."""
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "open-session", "id": "rq-o", "session": "m2",
                   "graph": protocol.encode_graph(triangle())})
        assert conn.recv()["type"] == "session-opened"
        encoded = protocol.encode_frame(
            {"type": "mutate", "id": "rq-dup", "request_id": "rq-dup",
             "session": "m2", "insert": [[0, 3]]}
        )
        conn.send_bytes(encoded + encoded)
        first, second = conn.recv(), conn.recv()
        assert first["type"] == second["type"] == "mutated"
        assert first["epoch"] == second["epoch"] == 1
        assert {first["replayed"], second["replayed"]} == {False, True}


class TestErrors:
    def test_mutate_unknown_session(self, server, make_client):
        client = make_client(server)
        with pytest.raises(ServerError) as exc_info:
            client.mutate("ghost", insert=[(0, 1)])
        assert exc_info.value.code == "unknown_session"
        assert not exc_info.value.retriable

    def test_close_unknown_session(self, server, make_client):
        client = make_client(server)
        with pytest.raises(ServerError) as exc_info:
            client.close_session("ghost")
        assert exc_info.value.code == "unknown_session"

    def test_mutate_after_close_is_unknown_session(self, server, make_client):
        client = make_client(server)
        client.open_session(triangle(), session="c1")
        client.close_session("c1")
        with pytest.raises(ServerError) as exc_info:
            client.mutate("c1", insert=[(0, 3)])
        assert exc_info.value.code == "unknown_session"

    def test_session_cap(self, make_server, make_client):
        from repro.server import ServerConfig
        server = make_server(config=ServerConfig(port=0, max_sessions=1))
        client = make_client(server)
        client.open_session(triangle(), session="one")
        with pytest.raises(ServerError) as exc_info:
            client.open_session(triangle(), session="two")
        assert exc_info.value.code == "too_many_sessions"
        assert exc_info.value.retriable  # closing a session frees a slot

    def test_non_max_clique_session_rejected(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send({
            "type": "open-session", "id": "rq-k", "session": "k",
            "graph": protocol.encode_graph(triangle()),
            "config": {"problem": "k-clique-count", "k": 3},
        })
        reply = conn.recv()
        assert reply["type"] == "error" and reply["code"] == "bad_request"

    def test_bad_mutation_pairs_rejected(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "open-session", "id": "rq-o", "session": "b1",
                   "graph": protocol.encode_graph(triangle())})
        assert conn.recv()["type"] == "session-opened"
        conn.send({"type": "mutate", "id": "rq-m", "session": "b1",
                   "insert": [[0, 0]]})
        reply = conn.recv()
        assert reply["type"] == "error" and reply["code"] == "bad_request"
        # the rejected batch spent nothing: the session still mutates
        conn.send({"type": "mutate", "id": "rq-m2", "session": "b1",
                   "insert": [[0, 3]]})
        assert conn.recv()["epoch"] == 1

    def test_subscribe_unknown_session(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "subscribe", "id": "rq-s", "session": "ghost"})
        reply = conn.recv()
        assert reply["type"] == "error"
        assert reply["code"] == "unknown_session"


class TestSubscribe:
    def test_snapshot_then_pushes_then_close(self, server, make_client):
        opener = make_client(server)
        opener.open_session(triangle(), session="w1")

        frames = []
        done = threading.Event()

        def watch():
            watcher = SolveClient(port=server.port, timeout_s=30.0)
            try:
                for frame in watcher.subscribe("w1"):
                    frames.append(frame)
                    if frame.get("closed"):
                        break
            finally:
                watcher.close()
                done.set()

        thread = threading.Thread(target=watch, daemon=True)
        thread.start()
        # wait for the snapshot so the pushes race nothing
        deadline = threading.Event()
        for _ in range(200):
            if frames:
                break
            deadline.wait(0.05)
        assert frames and frames[0]["epoch"] == 0

        opener.mutate("w1", insert=[(0, 3), (1, 3)])
        opener.mutate("w1", delete=[(0, 3)])
        opener.close_session("w1")
        assert done.wait(timeout=30.0), "subscriber never saw the close"

        epochs = [f["epoch"] for f in frames]
        assert epochs[0] == 0
        # monotone non-decreasing, ending at the final epoch
        assert all(a <= b for a, b in zip(epochs, epochs[1:])), epochs
        assert epochs[-1] == 2
        assert frames[-1]["closed"] is True
        omegas = {f["epoch"]: f["omega"] for f in frames}
        assert omegas[2] == 3

    def test_resubscribe_after_disconnect(self, server, make_client):
        opener = make_client(server)
        opener.open_session(triangle(), session="w2")
        opener.mutate("w2", insert=[(0, 3), (1, 3)])

        # first subscriber connects, reads the snapshot, and vanishes
        first = SolveClient(port=server.port, timeout_s=30.0)
        gen_first = first.subscribe("w2")
        snap = next(gen_first)
        assert snap["epoch"] == 1
        first.close()

        # the session is untouched: a second subscriber reattaches
        second = SolveClient(port=server.port, timeout_s=30.0)
        try:
            gen_second = second.subscribe("w2")
            snap = next(gen_second)
            assert snap["epoch"] == 1 and snap["omega"] == 4
        finally:
            second.close()

    def test_subscribers_gauge_drops_with_connection(self, server,
                                                     make_client):
        opener = make_client(server)
        opener.open_session(triangle(), session="w3")
        watcher = SolveClient(port=server.port, timeout_s=30.0)
        gen = watcher.subscribe("w3")
        next(gen)
        assert opener.stats()["server"]["subscribers"] == 1
        watcher.close()
        # teardown is asynchronous; poll briefly
        for _ in range(100):
            if opener.stats()["server"]["subscribers"] == 0:
                break
            threading.Event().wait(0.02)
        assert opener.stats()["server"]["subscribers"] == 0


class TestValidation:
    def test_session_id_must_be_short_string(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "open-session", "id": "rq-v",
                   "session": "x" * 500,
                   "graph": protocol.encode_graph(triangle())})
        reply = conn.recv()
        assert reply["type"] == "error" and reply["code"] == "bad_request"

    def test_open_requires_graph(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "open-session", "id": "rq-g", "session": "ng"})
        reply = conn.recv()
        assert reply["type"] == "error" and reply["code"] == "bad_request"

    def test_open_against_non_streaming_server_fails_fast(self):
        """A hello without the streaming advert rejects open_session."""
        from tests.cluster.conftest import FakeBackend

        fake = FakeBackend()
        client = SolveClient(port=fake.port, timeout_s=5.0, retries=0)
        try:
            with pytest.raises(ServerError) as exc_info:
                client.open_session(triangle(), session="nope")
            assert exc_info.value.code == "unsupported_protocol"
            assert not exc_info.value.retriable
        finally:
            client.close()
            fake.close()
