"""Problem-kind negotiation and per-kind solves over the wire.

The hello reply advertises the kinds the server solves; a solve frame
naming an unknown kind gets a non-retriable ``unsupported_problem``
error; :class:`SolveClient` rejects unadvertised kinds locally without
burning a round trip; and every supported kind round-trips to the same
answer as its CPU oracle.
"""

import pytest

from repro.baselines import count_k_cliques_reference, maximal_clique_set
from repro.errors import ServerError
from repro.graph import from_edge_list
from repro.server import protocol

from .conftest import TRIANGLE_EDGES

EDGES_PAYLOAD = {"kind": "edges", "edges": TRIANGLE_EDGES}
TRIANGLE = from_edge_list([tuple(e) for e in TRIANGLE_EDGES])


class TestHelloAdvertisesKinds:
    def test_handshake_lists_supported_problems(self, server, raw_conn):
        hello = raw_conn(server).hello()
        assert hello["problems"] == list(protocol.SUPPORTED_PROBLEMS)
        assert hello["problems"] == [
            "max-clique", "k-clique-count", "maximal-enum"
        ]

    def test_redundant_hello_lists_them_too(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send(
            {"type": "hello", "protocol": protocol.PROTOCOL, "client": "raw"}
        )
        again = conn.recv()
        assert again["problems"] == list(protocol.SUPPORTED_PROBLEMS)

    def test_client_records_advertised_kinds(self, server, make_client):
        client = make_client(server)
        hello = client.connect()
        assert hello["problems"] == list(protocol.SUPPORTED_PROBLEMS)


class TestUnknownKindRejected:
    def test_error_frame_is_non_retriable(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send(
            {
                "type": "solve",
                "id": "r1",
                "graph": EDGES_PAYLOAD,
                "problem": "chromatic-number",
            }
        )
        reply = conn.recv()
        assert reply["type"] == "error"
        assert reply["code"] == "unsupported_problem"
        assert reply["retriable"] is False
        assert reply["exit_code"] == 1
        assert reply["id"] == "r1"
        assert "chromatic-number" in reply["message"]

    def test_connection_survives_the_rejection(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send(
            {
                "type": "solve",
                "id": "bad",
                "graph": EDGES_PAYLOAD,
                "problem": "nope",
            }
        )
        assert conn.recv()["code"] == "unsupported_problem"
        conn.send({"type": "solve", "id": "good", "graph": EDGES_PAYLOAD})
        reply = conn.recv()
        assert reply["type"] == "result"
        assert reply["record"]["clique_number"] == 3

    def test_problem_in_both_places_is_bad_request(self, server, raw_conn):
        conn = raw_conn(server)
        conn.hello()
        conn.send(
            {
                "type": "solve",
                "id": "r1",
                "graph": EDGES_PAYLOAD,
                "problem": "maximal-enum",
                "config": {"problem": "max-clique"},
            }
        )
        reply = conn.recv()
        assert reply["code"] == "bad_request"
        assert "use one" in reply["message"]

    def test_client_rejects_locally_without_a_round_trip(
        self, server, make_client
    ):
        client = make_client(server)
        client.connect()
        frames_before = client.stats()["server"]["frames.in"]
        with pytest.raises(ServerError) as info:
            client.solve(TRIANGLE, problem="vertex-cover", max_report=5)
        assert info.value.code == "unsupported_problem"
        assert info.value.retriable is False
        # only the second stats round trip hits the wire: the rejected
        # solve frame was never sent (and therefore never retried)
        frames_after = client.stats()["server"]["frames.in"]
        assert frames_after == frames_before + 1


class TestKindsOverTheWire:
    def test_k_clique_count_matches_oracle(self, server, make_client, community):
        client = make_client(server)
        reply = client.solve(community, problem="k-clique-count", k=3)
        record = reply["record"]
        assert record["status"] == "ok"
        assert record["problem"] == "k-clique-count"
        assert record["k"] == 3
        assert record["k_clique_count"] == count_k_cliques_reference(
            community, 3
        )
        assert record["enumerated_all"] is True
        assert "cliques" not in reply  # counting kinds ship no rows

    def test_maximal_enum_matches_oracle(self, server, make_client, community):
        client = make_client(server)
        reply = client.solve(community, problem="maximal-enum")
        record = reply["record"]
        oracle = maximal_clique_set(community)
        assert record["status"] == "ok"
        assert record["num_maximal_cliques"] == len(oracle)
        assert record["clique_number"] == len(oracle[-1])
        assert [tuple(row) for row in reply["cliques"]] == oracle

    def test_trailing_isolated_vertices_survive_the_wire(self, server, make_client):
        # each isolated vertex is a singleton maximal clique
        graph = from_edge_list([(0, 1), (1, 2), (0, 2)], num_vertices=6)
        reply = make_client(server).solve(graph, problem="maximal-enum")
        assert reply["record"]["num_maximal_cliques"] == 4
        assert [tuple(row) for row in reply["cliques"]] == maximal_clique_set(graph)

    def test_max_report_caps_enum_rows(self, server, make_client, community):
        client = make_client(server)
        reply = client.solve(community, problem="maximal-enum", max_report=2)
        assert len(reply["cliques"]) == 2
        # the count stays exact even though the rows are capped
        assert reply["record"]["num_maximal_cliques"] == len(
            maximal_clique_set(community)
        )

    def test_default_kind_record_is_kind_tagged(self, server, make_client):
        client = make_client(server)
        reply = client.solve(TRIANGLE)
        record = reply["record"]
        assert record["problem"] == "max-clique"
        assert record["k"] is None
        assert record["k_clique_count"] is None
        assert record["num_maximal_cliques"] is None
