"""Streaming sessions through the cluster tier.

The router pins each session to one backend by consistent-hashing the
session id, forwards open/mutate/close as ordinary request/reply
traffic, and relays subscriptions over a dedicated passthrough
connection. A dead backend turns its pinned sessions into
non-retriable ``session_lost`` errors -- resident graph state dies
with the process that held it -- and the session id becomes reusable
the moment a new open succeeds elsewhere.
"""

import threading

import pytest

from repro.cluster.router import Router, RouterConfig
from repro.errors import ServerError
from repro.graph import from_edge_list
from repro.server import SolveClient

from .conftest import wait_until

TRIANGLE_EDGES = [(0, 1), (1, 2), (0, 2), (2, 3)]


def triangle():
    return from_edge_list(TRIANGLE_EDGES)


class TestRoutedSessions:
    def test_open_mutate_close_through_router(self, make_backend,
                                              make_router, make_client):
        backends = [make_backend(), make_backend()]
        router = make_router(backends)
        client = make_client(router)
        opened = client.open_session(triangle(), session="r1")
        assert opened["epoch"] == 0 and opened["omega"] == 3
        mutated = client.mutate("r1", insert=[(0, 3), (1, 3)])
        assert mutated["epoch"] == 1 and mutated["omega"] == 4
        closed = client.close_session("r1")
        assert closed["epoch"] == 1

    def test_hello_advertises_streaming(self, make_backend, make_router,
                                        make_client):
        router = make_router([make_backend()])
        hello = make_client(router).connect()
        assert hello["streaming"] is True

    def test_session_pins_to_exactly_one_backend(self, make_backend,
                                                 make_router, make_client):
        backends = [make_backend(), make_backend()]
        router = make_router(backends)
        client = make_client(router)
        for i in range(4):
            client.open_session(triangle(), session=f"pin-{i}")
            client.mutate(f"pin-{i}", insert=[(0, 3)])
        stats = client.stats()
        assert stats["router"]["sessions_pinned"] == 4
        # every session lives on exactly one backend; the four spread
        # per the ring, their sum is exact
        per_backend = []
        for backend in backends:
            with SolveClient(port=backend.port, timeout_s=30.0) as direct:
                per_backend.append(
                    direct.stats()["server"]["sessions_open"]
                )
        assert sum(per_backend) == 4

    def test_mutations_follow_the_pin(self, make_backend, make_router,
                                      make_client):
        backends = [make_backend(), make_backend()]
        router = make_router(backends)
        client = make_client(router)
        client.open_session(triangle(), session="sticky")
        for i in range(5):
            client.mutate("sticky", insert=[(0, 4 + i)])
        # exactly one backend saw the session; its epoch is 5
        epochs = []
        for backend in backends:
            sessions = backend.server.sessions
            if "sticky" in sessions:
                epochs.append(sessions.get("sticky").epoch)
        assert epochs == [5]

    def test_subscribe_relays_through_router(self, make_backend,
                                             make_router, make_client):
        router = make_router([make_backend(), make_backend()])
        opener = make_client(router)
        opener.open_session(triangle(), session="sub1")

        frames = []
        done = threading.Event()

        def watch():
            watcher = SolveClient(port=router.port, timeout_s=30.0)
            try:
                for frame in watcher.subscribe("sub1"):
                    frames.append(frame)
                    if frame.get("closed"):
                        break
            finally:
                watcher.close()
                done.set()

        thread = threading.Thread(target=watch, daemon=True)
        thread.start()
        wait_until(lambda: frames, message="snapshot through the router")
        opener.mutate("sub1", insert=[(0, 3), (1, 3)])
        opener.close_session("sub1")
        assert done.wait(timeout=30.0), "close never reached the subscriber"
        epochs = [f["epoch"] for f in frames]
        assert epochs[0] == 0 and epochs[-1] == 1
        assert all(a <= b for a, b in zip(epochs, epochs[1:]))
        assert frames[-1]["closed"] is True
        counters = opener.stats()["router"]
        assert counters["sessions.updates_relayed"] >= len(frames)

    def test_duplicate_open_replays_through_router(self, make_backend,
                                                   make_router, raw_conn):
        from repro.server import protocol

        router = make_router([make_backend()])
        conn = raw_conn(router)
        conn.hello()
        frame = {"type": "open-session", "id": "rq-o", "request_id": "rq-o",
                 "session": "dup", "graph": protocol.encode_graph(triangle())}
        conn.send(frame)
        first = conn.recv()
        assert first["type"] == "session-opened"
        conn.send(frame)
        replay = conn.recv()
        assert replay["type"] == "session-opened"
        assert replay["fingerprint"] == first["fingerprint"]


class TestSessionLoss:
    def test_dead_backend_turns_pins_into_session_lost(self, make_backend,
                                                       make_router,
                                                       make_client):
        backends = [make_backend(), make_backend()]
        router = make_router(backends)
        client = make_client(router)
        client.open_session(triangle(), session="doomed")
        # find and kill the backend holding the session
        victim = next(
            b for b in backends if "doomed" in b.server.sessions
        )
        victim.kill()
        wait_until(
            lambda: not router.router.health[
                f"127.0.0.1:{victim.port}"].available,
            message="router noticing the dead backend",
        )
        with pytest.raises(ServerError) as exc_info:
            client.mutate("doomed", insert=[(0, 3)], deadline_s=30.0)
        assert exc_info.value.code == "session_lost"
        assert not exc_info.value.retriable
        assert client.stats()["router"]["sessions_lost"] >= 1

    def test_lost_session_id_reopens_on_survivor(self, make_backend,
                                                 make_router, make_client):
        backends = [make_backend(), make_backend()]
        router = make_router(backends)
        client = make_client(router)
        client.open_session(triangle(), session="phoenix")
        victim = next(
            b for b in backends if "phoenix" in b.server.sessions
        )
        survivor = next(b for b in backends if b is not victim)
        victim.kill()
        wait_until(
            lambda: not router.router.health[
                f"127.0.0.1:{victim.port}"].available,
            message="router noticing the dead backend",
        )
        with pytest.raises(ServerError):
            client.mutate("phoenix", insert=[(0, 3)], deadline_s=30.0)
        # a fresh open of the same id is legal: it pins to the survivor
        # (the client's open retries absorb any transient no_backend)
        reopened = client.open_session(triangle(), session="phoenix")
        assert reopened["epoch"] == 0
        assert "phoenix" in survivor.server.sessions
        mutated = client.mutate("phoenix", insert=[(0, 3), (1, 3)])
        assert mutated["omega"] == 4

    def test_subscriber_sees_session_lost_on_backend_death(self, make_backend,
                                                           make_router,
                                                           make_client,
                                                           raw_conn):
        backends = [make_backend(), make_backend()]
        router = make_router(backends)
        client = make_client(router)
        client.open_session(triangle(), session="watched")
        victim = next(
            b for b in backends if "watched" in b.server.sessions
        )
        conn = raw_conn(router)
        conn.hello()
        conn.send({"type": "subscribe", "id": "sub-1", "session": "watched"})
        snapshot = conn.recv()
        assert snapshot["type"] == "update" and snapshot["epoch"] == 0
        victim.kill()
        # the passthrough pipe hits EOF and reports the loss in-band
        lost = conn.recv()
        assert lost["type"] == "error"
        assert lost["code"] == "session_lost"
        assert lost["retriable"] is False

    def test_unknown_vs_lost_error_codes(self, make_backend, make_router,
                                         make_client):
        backends = [make_backend(), make_backend()]
        router = make_router(backends)
        client = make_client(router)
        # never-opened id: unknown_session
        with pytest.raises(ServerError) as exc_info:
            client.mutate("never-was", insert=[(0, 1)])
        assert exc_info.value.code == "unknown_session"
        # lost id: session_lost (tombstoned, not merely unknown)
        client.open_session(triangle(), session="was-here")
        victim = next(
            b for b in backends if "was-here" in b.server.sessions
        )
        victim.kill()
        wait_until(
            lambda: not router.router.health[
                f"127.0.0.1:{victim.port}"].available,
            message="router noticing the dead backend",
        )
        with pytest.raises(ServerError) as exc_info:
            client.mutate("was-here", insert=[(0, 1)], deadline_s=30.0)
        assert exc_info.value.code == "session_lost"


class TestLostSessionTombstones:
    def test_cap_evicts_the_oldest(self):
        # no backend listens: the tombstone table needs none
        router = Router(RouterConfig(backends=[("127.0.0.1", 1)], port=0))
        sids = [f"lost-{i}" for i in range(2 * 4096)]
        for sid in sids:
            router._mark_session_lost(sid)
        # the newest 4,096 still answer session_lost, in loss order
        assert list(router._lost_sessions) == sids[4096:]
        assert router.stats_frame()["router"]["sessions_lost"] == 4096

    def test_repeat_loss_refreshes_the_tombstone(self):
        router = Router(RouterConfig(backends=[("127.0.0.1", 1)], port=0))
        for i in range(4096):
            router._mark_session_lost(f"lost-{i}")
        router._mark_session_lost("lost-0")
        router._mark_session_lost("newest")
        assert "lost-0" in router._lost_sessions
        assert "lost-1" not in router._lost_sessions
