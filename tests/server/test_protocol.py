"""Unit tests for the ``repro-wire/1`` codecs, limiter, and stats."""

import base64
import gzip

import pytest

from repro.core.config import SolverConfig
from repro.errors import ProtocolError, ServerError
from repro.graph import generators as gen
from repro.server import protocol
from repro.server.limiter import TokenBucket
from repro.server.stats import LatencyWindow, ServerStats

from .conftest import gz_payload


class TestFraming:
    def test_round_trip(self):
        frame = {"type": "solve", "id": "r1", "graph": "ca-team-1k"}
        data = protocol.encode_frame(frame)
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert protocol.decode_frame(data) == frame

    def test_compact_encoding(self):
        data = protocol.encode_frame({"type": "stats"})
        assert b" " not in data

    @pytest.mark.parametrize(
        "line",
        [
            b"not json\n",
            b"{\"type\": \n",
            b"\xff\xfe\x00\n",
            b"[1,2,3]\n",
            b"42\n",
            b"{}\n",
            b"{\"type\": 7}\n",
            b"{\"type\": \"\"}\n",
        ],
    )
    def test_bad_lines_rejected(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_frame(line)
        assert excinfo.value.code == "bad_frame"

    def test_error_frame_known_code(self):
        frame = protocol.error_frame("rate_limited", "slow down", "r1", 0.25)
        assert frame["type"] == "error"
        assert frame["retriable"] is True
        assert frame["exit_code"] == 1
        assert frame["id"] == "r1"
        assert frame["retry_after_s"] == pytest.approx(0.25)

    def test_error_frame_unknown_code_maps_to_internal_semantics(self):
        frame = protocol.error_frame("no_such_code", "boom")
        assert frame["retriable"] is False
        assert frame["exit_code"] == 1
        assert "id" not in frame and "retry_after_s" not in frame


class TestHello:
    def test_client_hello_names_the_protocol(self):
        assert protocol.client_hello("raw") == {
            "type": "hello", "protocol": protocol.PROTOCOL, "client": "raw"
        }

    def test_a_hello_reply_passes(self):
        reply = protocol.hello_frame(1024, "repro/test")
        assert protocol.check_hello(reply) is reply

    def test_an_error_reply_raises_its_server_error(self):
        reply = protocol.error_frame("too_many_connections", "full", None, 0.5)
        with pytest.raises(ServerError) as info:
            protocol.check_hello(reply)
        assert info.value.code == "too_many_connections"
        assert info.value.retriable is True
        assert info.value.retry_after_s == 0.5

    @pytest.mark.parametrize(
        "reply,code",
        [
            ({"type": "stats"}, "bad_frame"),
            ({"type": "hello", "protocol": "repro-wire/9"}, "unsupported_protocol"),
        ],
    )
    def test_another_frame_is_a_protocol_error(self, reply, code):
        with pytest.raises(ProtocolError) as info:
            protocol.check_hello(reply)
        assert info.value.code == code


class TestGraphPayloads:
    def test_string_passes_through(self):
        assert protocol.encode_graph("ca-team-1k") == "ca-team-1k"

    def test_csr_round_trips_compressed(self):
        graph = gen.erdos_renyi(40, 0.25, seed=5)
        payload = protocol.encode_graph(graph)
        assert payload["kind"] == "edgelist-gz"
        decoded = protocol.decode_graph(payload)
        assert decoded.num_vertices == graph.num_vertices
        assert decoded.num_edges == graph.num_edges
        assert (decoded.col_indices == graph.col_indices).all()

    def test_inline_edges(self):
        graph = protocol.decode_graph(
            {"kind": "edges", "edges": [[0, 1], [1, 2], [0, 2]]}
        )
        assert graph.num_vertices == 3 and graph.num_edges == 3

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_graph("definitely-not-a-dataset")
        assert excinfo.value.code == "bad_request"

    def test_corrupt_base64_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_graph({"kind": "edgelist-gz", "data": "!!!"})
        assert excinfo.value.code == "bad_request"

    def test_non_gzip_data_rejected(self):
        import base64

        payload = {
            "kind": "edgelist-gz",
            "data": base64.b64encode(b"plain text, not gzip").decode(),
        }
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_graph(payload)
        assert excinfo.value.code == "bad_request"

    def test_inflated_text_capped(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_INLINE_TEXT_BYTES", 8)
        assert protocol.decode_graph(gz_payload("0 1\n1 2\n")).num_edges == 2
        with pytest.raises(ProtocolError, match="inflates past 8 bytes") as excinfo:
            protocol.decode_graph(gz_payload("0 1\n1 2\n\n"))
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize(
        "data",
        [
            gzip.compress(b"0 1\n") + gzip.compress(b"1 2\n"),
            gzip.compress(b"0 1\n") + b"\0",
            gzip.compress(b"0 1\n")[:-4],
        ],
        ids=["second-member", "trailing-byte", "truncated"],
    )
    def test_one_whole_gzip_member_only(self, data):
        payload = {"kind": "edgelist-gz", "data": base64.b64encode(data).decode()}
        with pytest.raises(ProtocolError, match="corrupt") as excinfo:
            protocol.decode_graph(payload)
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "nope"},
            {"kind": "edges", "edges": "0 1"},
            {"kind": "edgelist-gz", "data": 42},
            {"kind": "dataset"},
            12345,
            None,
            # not a payload kind: a dataset is named by a plain string
            {"kind": "dataset", "name": "ca-team-1k"},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_graph(payload)
        assert excinfo.value.code == "bad_request"

    def test_unencodable_graph_rejected(self):
        with pytest.raises(TypeError):
            protocol.encode_graph(3.14)


class TestSolveFrames:
    GRAPH = {"kind": "edges", "edges": [[0, 1], [1, 2], [0, 2]]}

    def test_full_frame(self):
        request, max_report = protocol.solve_request_from_frame(
            {
                "type": "solve",
                "id": "r1",
                "graph": self.GRAPH,
                "config": {"heuristic": "none", "window_size": 8},
                "timeout_s": 2.5,
                "label": "triangle",
                "max_report": 3,
            }
        )
        assert request.config == SolverConfig(heuristic="none", window_size=8)
        assert request.timeout_s == 2.5
        assert request.label == "triangle"
        assert max_report == 3

    def test_defaults(self):
        request, max_report = protocol.solve_request_from_frame(
            {"type": "solve", "graph": self.GRAPH}
        )
        assert request.config == SolverConfig()
        assert request.timeout_s is None
        assert max_report is None

    @pytest.mark.parametrize(
        "frame,fragment",
        [
            ({"type": "solve"}, "graph"),
            ({"type": "solve", "graph": GRAPH, "bogus": 1}, "bogus"),
            ({"type": "solve", "graph": GRAPH, "config": 7}, "config"),
            (
                {"type": "solve", "graph": GRAPH, "config": {"nope": 1}},
                "nope",
            ),
            (
                {"type": "solve", "graph": GRAPH, "config": {"heuristic": "zzz"}},
                "config",
            ),
            ({"type": "solve", "graph": GRAPH, "timeout_s": "soon"}, "timeout_s"),
            ({"type": "solve", "graph": GRAPH, "label": 9}, "label"),
            ({"type": "solve", "graph": GRAPH, "max_report": -1}, "max_report"),
            ({"type": "solve", "graph": GRAPH, "max_report": 1.5}, "max_report"),
            ({"type": "solve", "graph": GRAPH, "timeout_s": 10**400}, "timeout_s"),
            ({"type": "solve", "graph": GRAPH, "timeout_s": 0}, "timeout_s"),
            ({"type": "solve", "graph": GRAPH, "timeout_s": -1}, "timeout_s"),
            ({"type": "solve", "graph": GRAPH, "timeout_s": True}, "timeout_s"),
            (
                {"type": "solve", "graph": GRAPH, "timeout_s": float("inf")},
                "timeout_s",
            ),
        ],
    )
    def test_invalid_frames_rejected(self, frame, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.solve_request_from_frame(frame)
        assert excinfo.value.code == "bad_request"
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        "record,expected",
        [
            ({"status": "ok"}, 0),
            ({"status": "failed", "error": "DeviceOOMError: 3 GiB"}, 2),
            ({"status": "failed", "error": "SolveTimeoutError: 5s"}, 3),
            ({"status": "failed", "error": "DeviceLostError: gone"}, 4),
            ({"status": "failed", "error": "ValueError: ?"}, 1),
            ({"status": "rejected", "error": None}, 1),
        ],
    )
    def test_exit_codes(self, record, expected):
        assert protocol.exit_code_for_record(record) == expected


class TestTokenBucket:
    def test_zero_rate_is_unlimited(self):
        bucket = TokenBucket(0.0, burst=1)
        assert bucket.unlimited
        for _ in range(1000):
            ok, retry = bucket.try_acquire()
            assert ok and retry == 0.0

    def test_burst_then_denial(self):
        now = [0.0]
        bucket = TokenBucket(1.0, burst=3, clock=lambda: now[0])
        assert all(bucket.try_acquire()[0] for _ in range(3))
        ok, retry = bucket.try_acquire()
        assert not ok
        assert retry == pytest.approx(1.0)

    def test_refill_restores_tokens(self):
        now = [0.0]
        bucket = TokenBucket(2.0, burst=2, clock=lambda: now[0])
        assert bucket.try_acquire()[0] and bucket.try_acquire()[0]
        assert not bucket.try_acquire()[0]
        now[0] += 0.5  # 2 tokens/s * 0.5s = 1 token back
        ok, _ = bucket.try_acquire()
        assert ok
        assert not bucket.try_acquire()[0]

    def test_tokens_capped_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(10.0, burst=2, clock=lambda: now[0])
        now[0] += 100.0
        assert bucket.tokens == pytest.approx(2.0)

    def test_bad_burst_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(1.0, burst=0)


class TestStats:
    def test_latency_percentiles(self):
        window = LatencyWindow(size=100)
        for ms in range(1, 101):
            window.record(ms / 1e3)
        snap = window.snapshot()
        assert snap["count"] == 100
        assert snap["p50_ms"] == pytest.approx(50.0, abs=2.0)
        assert snap["p99_ms"] == pytest.approx(99.0, abs=2.0)
        assert snap["mean_ms"] == pytest.approx(50.5, abs=0.1)

    def test_empty_window(self):
        snap = LatencyWindow().snapshot()
        assert snap == {
            "count": 0,
            "window": 0,
            "mean_ms": 0.0,
            "p50_ms": 0.0,
            "p99_ms": 0.0,
        }

    def test_window_is_bounded(self):
        window = LatencyWindow(size=4)
        for _ in range(100):
            window.record(1.0)
        snap = window.snapshot()
        assert snap["count"] == 100 and snap["window"] == 4

    def test_bad_window_size_rejected(self):
        with pytest.raises(ValueError):
            LatencyWindow(size=0)

    def test_server_stats_counters_and_gauges(self):
        stats = ServerStats()
        stats.inc("frames.in")
        stats.inc("frames.in")
        stats.inc("rejects.bad_frame", 3)
        assert stats.get("frames.in") == 2
        snap = stats.snapshot(queue_depth=7, draining=False)
        assert snap["frames.in"] == 2
        assert snap["rejects.bad_frame"] == 3
        assert snap["queue_depth"] == 7
        assert snap["draining"] is False
        assert snap["latency"]["count"] == 0
