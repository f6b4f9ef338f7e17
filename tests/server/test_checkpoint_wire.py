"""Checkpoint frames on the wire and client address rotation.

The ``checkpoint`` frame and the solve-side ``checkpoint`` payload are
the transport half of the cluster tier's failover (docs/CLUSTER.md):
the router polls the former from the owning backend and re-attaches
the newest state via the latter when it re-submits a dying solve to a
replica. These tests pin the server-side contract on its own, without
a router in the loop.
"""

import time

import pytest

from repro.core import SolverConfig
from repro.core.solver import MaxCliqueSolver
from repro.errors import ServerError
from repro.server import SolveClient
from repro.service import SolveService

from .conftest import TRIANGLE_EDGES

TRIANGLE = {"kind": "edges", "edges": TRIANGLE_EDGES}


class SlowWindowService(SolveService):
    """Sleeps after every completed window: a live checkpoint source."""

    def __init__(self, window_delay_s, **kwargs):
        super().__init__(**kwargs)
        self._window_delay_s = window_delay_s

    def submit(self, request):
        sink = request.checkpoint_sink
        if sink is not None:
            def slow_sink(ckpt, _sink=sink):
                time.sleep(self._window_delay_s)
                _sink(ckpt)

            request.checkpoint_sink = slow_sink
        return super().submit(request)


def local_checkpoints(graph, window_size):
    """Every completed-window checkpoint of a fault-free local solve."""
    taken = []
    MaxCliqueSolver(
        graph,
        SolverConfig(window_size=window_size),
        checkpoint_sink=taken.append,
    ).solve()
    assert len(taken) >= 2, "graph too small to produce checkpoints"
    return taken


class TestCheckpointFrame:
    def test_inflight_job_reports_checkpoint(self, make_server, raw_conn):
        server = make_server(service=SlowWindowService(0.05))
        conn = raw_conn(server)
        conn.hello()
        conn.send(
            {
                "type": "solve",
                "id": "ck",
                "graph": "ca-team-1k",
                "config": {"window_size": 128},
            }
        )
        # poll until the bridge has stored at least one completed
        # window; the result frame may interleave with the replies
        saw_live_checkpoint = False
        result = None
        deadline = time.monotonic() + 30.0
        while result is None:
            assert time.monotonic() < deadline, "no result frame"
            conn.send({"type": "checkpoint", "id": "ck"})
            frame = conn.recv()
            assert frame is not None
            if frame["type"] == "result":
                result = frame
                break
            assert frame["type"] == "checkpoint"
            assert frame["id"] == "ck"
            if frame["checkpoint"] is not None:
                saw_live_checkpoint = True
                assert frame["state"] in ("queued", "running")
                assert frame["checkpoint"]["graph_fingerprint"]
            time.sleep(0.02)
        assert saw_live_checkpoint, "never observed a live checkpoint"
        assert result["record"]["status"] == "ok"
        # drain any checkpoint replies that were already in flight
        # when the result landed, then ask once more: job finished ->
        # state terminal, checkpoint dropped
        conn.send({"type": "checkpoint", "id": "ck"})
        frame = conn.recv()
        while frame is not None and frame.get("checkpoint") is not None:
            conn.send({"type": "checkpoint", "id": "ck"})
            frame = conn.recv()
        assert frame is not None
        assert frame["state"] in ("done", "unknown")
        assert frame["checkpoint"] is None

    def test_unknown_id_and_missing_id(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send({"type": "checkpoint", "id": "nope"})
        frame = conn.recv()
        assert frame["state"] == "unknown"
        assert frame["checkpoint"] is None
        conn.send({"type": "checkpoint"})
        assert conn.recv()["code"] == "bad_request"


class TestShippedCheckpoint:
    def test_resume_from_mid_checkpoint_matches_clean_run(
        self, server, make_client, community
    ):
        """A solve resumed from a shipped mid-search checkpoint must
        produce the same witnesses as the fault-free run."""
        taken = local_checkpoints(community, window_size=24)
        clean = SolveService().solve(community, window_size=24)
        mid = taken[len(taken) // 2].to_dict()
        client = make_client(server)
        reply = client.solve(community, window_size=24, checkpoint=mid)
        record = reply["record"]
        assert record["status"] == "ok"
        assert record["clique_number"] == clean.clique_number
        assert record["num_maximum_cliques"] == clean.num_maximum_cliques
        assert reply["cliques"] == [
            [int(v) for v in row] for row in clean.result.cliques
        ]

    def test_checkpoint_for_wrong_graph_rejected(
        self, server, make_client, community
    ):
        from repro.graph.build import from_edge_list

        other = from_edge_list([tuple(e) for e in TRIANGLE_EDGES])
        taken = local_checkpoints(community, window_size=24)
        client = make_client(server)
        with pytest.raises(ServerError) as excinfo:
            client.solve(
                other, window_size=2, checkpoint=taken[0].to_dict()
            )
        assert excinfo.value.code == "bad_request"
        assert not excinfo.value.retriable

    def test_malformed_checkpoint_rejected(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send(
            {
                "type": "solve",
                "id": "bad",
                "graph": TRIANGLE,
                "config": {"window_size": 2},
                "checkpoint": {"not": "a checkpoint"},
            }
        )
        reply = conn.recv()
        assert reply["type"] == "error"
        assert reply["code"] == "bad_request"


class TestClientRotation:
    def test_connect_rotates_past_dead_address(self, server):
        from tests.cluster.conftest import free_port

        dead = f"127.0.0.1:{free_port()}"
        client = SolveClient(
            addresses=[dead, f"127.0.0.1:{server.port}"],
            retries=2,
            backoff_s=0.01,
        )
        try:
            hello = client.connect()
            assert hello["type"] == "hello"
            assert client.port == server.port  # now pointing past the corpse
        finally:
            client.close()

    def test_all_addresses_dead_reports_every_target(self):
        from tests.cluster.conftest import free_port

        addrs = [f"127.0.0.1:{free_port()}" for _ in range(2)]
        client = SolveClient(addresses=addrs, retries=1, backoff_s=0.01)
        with pytest.raises(ServerError) as excinfo:
            client.connect()
        assert excinfo.value.code == "unreachable"
        for addr in addrs:
            assert addr in str(excinfo.value)

    def test_draining_reject_rotates_to_next_server(self, make_server):
        """A draining reject must push the client to its alternate
        address instead of burning the retry budget on sleeps."""
        from repro.graph import generators as gen
        from tests.cluster.conftest import FakeBackend

        draining = FakeBackend()  # rejects every solve with draining
        healthy = make_server()
        client = SolveClient(
            addresses=[
                f"127.0.0.1:{draining.port}",
                f"127.0.0.1:{healthy.port}",
            ],
            retries=2,
            backoff_s=0.01,
        )
        try:
            reply = client.solve(gen.erdos_renyi(12, 0.5, seed=1))
            assert reply["record"]["status"] == "ok"
            assert client.port == healthy.port
        finally:
            client.close()
            draining.close()

    def test_single_address_never_rotates(self, server, make_client):
        client = make_client(server)
        assert client._rotate() is False
        assert client.port == server.port
