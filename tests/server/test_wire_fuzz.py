"""Property-based fuzzing of the ``repro-wire/1`` decoders.

Whatever a peer sends, each decoder returns a value or raises
:class:`~repro.errors.ProtocolError` -- nothing else may escape into a
connection task. Vertex ids are drawn up to twice
:data:`~repro.server.protocol.MAX_INLINE_VERTICES`, so many graph and
mutation payloads are over the cap and must be refused before anything
is built. Inline graphs round-trip exactly, isolated vertices included.
"""

import base64

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import CHECKPOINT_SCHEMA
from repro.core.config import PROBLEM_KINDS, SolverConfig
from repro.errors import ProtocolError
from repro.graph import from_edge_list
from repro.server import protocol

from .conftest import gz_payload

CAP = protocol.MAX_INLINE_VERTICES
SETTINGS = dict(max_examples=150, deadline=None)

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
#: mostly tiny ids (cheap graphs), sometimes anywhere up to twice the cap
vertex_ids = st.integers(0, 20) | st.integers(0, 2 * CAP)
edges = st.lists(st.tuples(vertex_ids, vertex_ids), max_size=8)


@st.composite
def edge_texts(draw):
    """Edge-list text, optionally under a ``# |V|=n`` header."""
    lines = [f"{u} {v}" for u, v in draw(edges)]
    if draw(st.booleans()):
        lines.insert(0, f"# |V|={draw(vertex_ids)}")
    return "\n".join(lines) + "\n"


@st.composite
def mangled(draw, payload):
    """A gzip payload with a few bytes of its stream overwritten."""
    raw = bytearray(base64.b64decode(payload["data"]))
    for _ in range(draw(st.integers(1, 3))):
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return {"kind": "edgelist-gz", "data": base64.b64encode(bytes(raw)).decode()}


graph_payloads = st.one_of(
    edges.map(lambda pairs: {"kind": "edges", "edges": [list(p) for p in pairs]}),
    edge_texts().map(gz_payload),
    edge_texts().map(gz_payload).flatmap(mangled),
    st.fixed_dictionaries({"kind": st.just("edges"), "edges": json_values}),
    st.fixed_dictionaries({"kind": st.just("edgelist-gz"), "data": json_values}),
    st.fixed_dictionaries({"kind": st.just("dataset"), "name": json_values}),
    st.text(max_size=40),
    json_values,
)
configs = json_values | st.dictionaries(
    st.sampled_from(sorted(SolverConfig.__dataclass_fields__)),
    json_values | st.integers(-2, 64),
    max_size=3,
)
checkpoints = json_values | st.dictionaries(
    st.sampled_from(
        ["schema", "graph_fingerprint", "config_fingerprint", "omega",
         "best_clique", "pending", "windows_done", "total_windows"]
    ),
    st.just(CHECKPOINT_SCHEMA) | json_values,
    max_size=8,
)
#: value strategies for the optional fields of the request frames
FIELDS = {
    "id": json_values,
    "request_id": st.text(max_size=8) | json_values,
    "problem": st.sampled_from(PROBLEM_KINDS) | json_values,
    "config": configs,
    "timeout_s": json_values,
    "deadline_s": st.floats() | json_values,
    "label": json_values,
    "max_report": json_values,
    "checkpoint": checkpoints,
    "session": st.text(min_size=1, max_size=8) | json_values,
    "insert": st.lists(st.lists(vertex_ids, max_size=3), max_size=4) | json_values,
    "delete": st.lists(st.lists(vertex_ids, max_size=3), max_size=4) | json_values,
    "bogus": json_values,
}


@st.composite
def frames(draw, ftype, keys):
    frame = {"type": ftype}
    if "graph" in keys and draw(st.integers(0, 9)):
        frame["graph"] = draw(graph_payloads)
    for key in draw(st.sets(st.sampled_from(sorted(FIELDS)), max_size=5)):
        if key in keys or key == "bogus":
            frame[key] = draw(FIELDS[key])
    return frame


def _returns_or_refuses(decoder, frame):
    try:
        return decoder(frame)
    except ProtocolError:
        return None


TRIANGLE = {"kind": "edges", "edges": [[0, 1], [1, 2], [0, 2]]}
VALID_LINE = protocol.encode_frame({"type": "solve", "id": "r1", "graph": TRIANGLE})


@st.composite
def mutated_lines(draw):
    """A valid frame line with bytes replaced, inserted or deleted."""
    line = bytearray(VALID_LINE)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(line)))
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.integers(0, 255))
        if action == "insert" or at == len(line):
            line.insert(at, byte)
        elif action == "replace":
            line[at] = byte
        else:
            del line[at]
    return bytes(line)


class TestDecodeFrame:
    @given(line=st.binary(max_size=200) | mutated_lines())
    @settings(**SETTINGS)
    @example(line=b"1" * 5000)
    @example(line=b"[" * 100_000)
    @example(line=b'{"type":"solve","n":' + b"9" * 5000 + b"}")
    def test_returns_a_frame_or_refuses(self, line):
        frame = _returns_or_refuses(protocol.decode_frame, line)
        if frame is not None:
            assert isinstance(frame, dict) and isinstance(frame["type"], str)


class TestRequestDecoders:
    @given(frame=frames("solve", protocol._SOLVE_KEYS))
    @settings(**SETTINGS)
    @example(frame={"type": "solve", "graph": "x" * 300})
    @example(frame={"type": "solve", "graph": TRIANGLE, "deadline_s": 10**400})
    def test_solve_frames(self, frame):
        _returns_or_refuses(protocol.solve_request_from_frame, frame)

    @given(frame=frames("open-session", protocol._OPEN_SESSION_KEYS))
    @settings(**SETTINGS)
    def test_open_session_frames(self, frame):
        _returns_or_refuses(protocol.open_session_from_frame, frame)

    @given(frame=frames("mutate", protocol._MUTATE_KEYS))
    @settings(**SETTINGS)
    def test_mutate_frames(self, frame):
        _returns_or_refuses(protocol.mutation_from_frame, frame)


class TestVertexCap:
    @given(pairs=st.lists(st.tuples(vertex_ids, vertex_ids), min_size=1, max_size=8))
    @settings(**SETTINGS)
    def test_ids_over_the_cap_are_refused(self, pairs):
        over = max(max(p) for p in pairs) >= CAP
        payloads = [
            {"kind": "edges", "edges": [list(p) for p in pairs]},
            gz_payload("".join(f"{u} {v}\n" for u, v in pairs)),
        ]
        for payload in payloads:
            graph = _returns_or_refuses(protocol.decode_graph, payload)
            assert (graph is None) == over
        mutate = {"type": "mutate", "session": "s", "insert": [list(p) for p in pairs]}
        refused = _returns_or_refuses(protocol.mutation_from_frame, mutate) is None
        assert refused == over

    @given(n=vertex_ids)
    @settings(**SETTINGS)
    def test_a_header_over_the_cap_is_refused(self, n):
        payload = gz_payload(f"# |V|={n}\n0 1\n")
        graph = _returns_or_refuses(protocol.decode_graph, payload)
        if n > CAP or n < 2:
            assert graph is None
        else:
            assert graph.num_vertices == n


@st.composite
def graphs_with_isolated_vertices(draw):
    n = draw(st.integers(1, 24))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)
    )
    return from_edge_list(pairs, num_vertices=n)


class TestGraphCodec:
    @given(graph=graphs_with_isolated_vertices())
    @settings(**SETTINGS)
    def test_round_trip_keeps_the_fingerprint(self, graph):
        decoded = protocol.decode_graph(protocol.encode_graph(graph))
        assert decoded.fingerprint() == graph.fingerprint()
