"""The ``repro-wire/1`` protocol: newline-delimited JSON frames.

One frame is one JSON object on one line, UTF-8, terminated by
``\\n``. The first client frame must be ``hello`` (protocol
negotiation); after that the client may pipeline ``solve``,
``status``, ``stats``, ``cancel``, ``checkpoint``, and ``shutdown``
frames and the server answers each (``solve`` asynchronously,
everything else immediately). A ``checkpoint`` frame fetches the
latest completed-window :class:`~repro.core.checkpoint.SearchCheckpoint`
of an in-flight solve, and a ``solve`` frame may carry a
``checkpoint`` payload to resume from -- together they are how the
cluster router (docs/CLUSTER.md) fails a mid-solve request over to a
replica. Streaming sessions add ``open-session`` / ``mutate`` /
``subscribe`` / ``close-session`` frames (docs/STREAMING.md): a
session holds a resident mutable graph server-side and pushes
epoch-stamped ``update`` frames to subscribers as mutations land.
Server-level failures travel as ``error`` frames whose
``code``/``retriable``/``exit_code`` fields reuse the existing error
taxonomy and CLI exit-code semantics (2 OOM, 3 timeout, 4 device
lost). docs/SERVER.md is the human-readable spec; this module is the
single source of truth both the server and the client import.

Graph payloads
--------------
A ``solve`` frame's ``graph`` field is one of:

* a string -- a surrogate-suite dataset name or server-side file path,
  resolved exactly like ``repro batch`` job files;
* ``{"kind": "edges", "edges": [[u, v], ...]}`` -- an inline edge
  list (small graphs, tests);
* ``{"kind": "edgelist-gz", "data": "<base64>"}`` -- one gzip member
  of edge-list text, base64-encoded. This is how remote clients ship
  graphs the server has no file for; it round-trips through the same
  text parser as :func:`repro.graph.io.load_graph`. The text may
  inflate to at most :data:`MAX_INLINE_TEXT_BYTES`.
"""

from __future__ import annotations

import base64
import binascii
import gzip
import json
import zlib
from typing import Any, Dict, Optional

from ..core.config import (
    PROBLEM_KINDS, SolverConfig, config_from_dict, is_time_budget,
)
from ..errors import ERROR_CODES, ProtocolError, ServerError, SolverConfigError
from ..graph.csr import CSRGraph
from ..graph.io import format_edge_list, parse_edge_list_text

__all__ = [
    "PROTOCOL",
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "MAX_INLINE_VERTICES",
    "MAX_INLINE_TEXT_BYTES",
    "ERROR_CODES",
    "SUPPORTED_PROBLEMS",
    "encode_frame",
    "decode_frame",
    "error_frame",
    "error_from_frame",
    "client_hello",
    "check_hello",
    "hello_frame",
    "encode_graph",
    "decode_graph",
    "solve_request_from_frame",
    "validate_request_key",
    "validate_session_id",
    "open_session_from_frame",
    "mutation_from_frame",
    "session_frame",
    "result_frame",
    "exit_code_for_record",
]

#: Protocol identifier exchanged in ``hello`` frames.
PROTOCOL = "repro-wire/1"

#: Problem kinds this server build can solve, advertised in the hello
#: reply's ``problems`` list so clients can fail fast locally.
SUPPORTED_PROBLEMS = tuple(PROBLEM_KINDS)

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 7421

#: Default cap on one encoded frame (newline included).
MAX_FRAME_BYTES = 8 << 20

#: Frame types a client may send after the handshake.
CLIENT_TYPES = frozenset(
    {"hello", "solve", "status", "stats", "cancel", "shutdown", "checkpoint",
     "open-session", "mutate", "subscribe", "close-session"}
)

_SOLVE_KEYS = frozenset(
    {"type", "id", "graph", "problem", "config", "timeout_s", "label",
     "max_report", "checkpoint", "request_id", "deadline_s"}
)

_OPEN_SESSION_KEYS = frozenset(
    {"type", "id", "session", "graph", "problem", "config", "request_id",
     "deadline_s"}
)
_MUTATE_KEYS = frozenset(
    {"type", "id", "session", "insert", "delete", "request_id", "deadline_s"}
)

#: upper bound on a client-chosen session id
MAX_SESSION_ID_LEN = 128

#: upper bound on a client-generated ``request_id`` (dedup table key)
MAX_REQUEST_ID_LEN = 256

#: record.error prefixes -> CLI exit codes (``repro solve`` semantics)
_ERROR_EXIT_CODES = {
    "DeviceOOMError": 2,
    "SolveTimeoutError": 3,
    "DeviceLostError": 4,
}


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Serialise one frame to its wire form (compact JSON + newline)."""
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a frame dict.

    Raises :class:`~repro.errors.ProtocolError` (code ``bad_frame``)
    on malformed JSON, a non-object payload, or a missing/ill-typed
    ``type`` field. Newline framing survives a bad line, so the caller
    may keep the connection open after answering with an error frame.
    """
    try:
        frame = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers
        raise ProtocolError(f"malformed frame: {exc}", code="bad_frame") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}",
            code="bad_frame",
        )
    ftype = frame.get("type")
    if not isinstance(ftype, str) or not ftype:
        raise ProtocolError("frame is missing a 'type' string", code="bad_frame")
    return frame


def error_frame(
    code: str,
    message: str,
    request_id: Optional[str] = None,
    retry_after_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Build an ``error`` frame; unknown codes map to ``internal``."""
    retriable, exit_code = ERROR_CODES.get(code, ERROR_CODES["internal"])
    frame: Dict[str, Any] = {
        "type": "error",
        "code": code,
        "message": message,
        "retriable": retriable,
        "exit_code": exit_code,
    }
    if request_id is not None:
        frame["id"] = request_id
    if retry_after_s is not None:
        frame["retry_after_s"] = round(float(retry_after_s), 6)
    return frame


def error_from_frame(frame: Dict[str, Any]) -> ServerError:
    """The :class:`~repro.errors.ServerError` a received ``error`` frame
    describes; fields it leaves out come from :data:`ERROR_CODES`."""
    return ServerError(
        frame.get("message", "server error"),
        code=frame.get("code", "internal"),
        retriable=frame.get("retriable"),
        exit_code=frame.get("exit_code"),
        retry_after_s=frame.get("retry_after_s"),
    )


def client_hello(client: str) -> Dict[str, Any]:
    """The hello frame a client opens every connection with."""
    return {"type": "hello", "protocol": PROTOCOL, "client": client}


def check_hello(frame: Dict[str, Any]) -> Dict[str, Any]:
    """``frame`` if it is a ``repro-wire/1`` hello reply.

    An ``error`` reply raises its :class:`~repro.errors.ServerError`;
    another frame type, or a hello of another protocol, raises
    :class:`~repro.errors.ProtocolError`.
    """
    if frame.get("type") == "error":
        raise error_from_frame(frame)
    if frame.get("type") != "hello":
        raise ProtocolError(f"expected a hello frame, got {frame.get('type')!r}")
    if frame.get("protocol") != PROTOCOL:
        raise ProtocolError(
            f"peer speaks {frame.get('protocol')!r}, not {PROTOCOL}",
            code="unsupported_protocol",
        )
    return frame


def hello_frame(max_frame_bytes: int, server: str) -> Dict[str, Any]:
    """The server's hello reply: protocol id plus capability advert.

    ``problems`` lists the problem kinds this build solves so a client
    can reject an unsupported ``problem`` locally instead of burning a
    round trip on a guaranteed ``unsupported_problem`` error.
    """
    return {
        "type": "hello",
        "protocol": PROTOCOL,
        "server": server,
        "max_frame_bytes": max_frame_bytes,
        "problems": list(SUPPORTED_PROBLEMS),
        # capability advert: this build speaks the streaming-session
        # frames (open-session / mutate / subscribe / close-session)
        "streaming": True,
    }


# ----------------------------------------------------------------------
# graph payloads
# ----------------------------------------------------------------------
def encode_graph(graph) -> Any:
    """Client-side graph payload: names pass through, CSRs ship compressed."""
    if isinstance(graph, str):
        return graph
    if isinstance(graph, CSRGraph):
        data = gzip.compress(format_edge_list(graph).encode("utf-8"))
        return {
            "kind": "edgelist-gz",
            "data": base64.b64encode(data).decode("ascii"),
        }
    raise TypeError(f"cannot encode a {type(graph).__name__} as a graph payload")


def decode_graph(payload) -> CSRGraph:
    """Server-side graph payload resolution; ``bad_request`` on failure."""
    try:
        if isinstance(payload, str):
            from ..service.jobs import resolve_graph

            return resolve_graph(payload)
        if isinstance(payload, dict):
            kind = payload.get("kind")
            if kind == "edges":
                edges = payload.get("edges")
                if not isinstance(edges, list):
                    raise ProtocolError(
                        "edges payload needs an 'edges' list", code="bad_request"
                    )
                from ..graph.build import from_edge_list

                pairs = [(int(u), int(v)) for u, v in edges]
                _check_vertex_ids(pairs, "edges payload")
                return from_edge_list(pairs)
            if kind == "edgelist-gz":
                data = payload.get("data")
                if not isinstance(data, str):
                    raise ProtocolError(
                        "edgelist-gz payload needs a base64 'data' string",
                        code="bad_request",
                    )
                # wbits=31: one gzip member, inflated under the text cap
                inflater = zlib.decompressobj(wbits=31)
                try:
                    text = inflater.decompress(
                        base64.b64decode(data, validate=True),
                        MAX_INLINE_TEXT_BYTES + 1,
                    )
                except (binascii.Error, zlib.error) as exc:
                    raise ProtocolError(
                        f"edgelist-gz payload is corrupt: {exc}",
                        code="bad_request",
                    ) from exc
                if len(text) > MAX_INLINE_TEXT_BYTES:
                    raise ProtocolError(
                        f"edgelist-gz payload inflates past "
                        f"{MAX_INLINE_TEXT_BYTES} bytes",
                        code="bad_request",
                    )
                if not inflater.eof or inflater.unused_data:
                    raise ProtocolError(
                        "edgelist-gz payload is corrupt: not one whole gzip member",
                        code="bad_request",
                    )
                return parse_edge_list_text(
                    text.decode(), source="<wire>", max_vertices=MAX_INLINE_VERTICES
                )
            raise ProtocolError(
                f"unknown graph payload kind {kind!r}", code="bad_request"
            )
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        # ValueError covers JobSpecError and GraphFormatError
        raise ProtocolError(f"bad graph payload: {exc}", code="bad_request") from exc
    raise ProtocolError(
        f"graph payload must be a string or object, got "
        f"{type(payload).__name__}",
        code="bad_request",
    )


# ----------------------------------------------------------------------
# solve frames <-> service requests
# ----------------------------------------------------------------------
def validate_request_key(frame: Dict[str, Any]) -> Optional[str]:
    """Validate and return a solve frame's idempotency ``request_id``.

    Cheap (no graph decode), so the server can consult its dedup table
    before paying for full validation. ``request_id`` is the
    *client-generated* idempotency key reused verbatim across retries
    -- distinct from the per-connection ``id`` that matches replies to
    requests. Returns None when absent.
    """
    request_key = frame.get("request_id")
    if request_key is None:
        return None
    if (
        not isinstance(request_key, str)
        or not request_key
        or len(request_key) > MAX_REQUEST_ID_LEN
    ):
        raise ProtocolError(
            "'request_id' must be a non-empty string of at most "
            f"{MAX_REQUEST_ID_LEN} characters",
            code="bad_request",
        )
    return request_key


def _config_from_frame(frame: Dict[str, Any]) -> SolverConfig:
    """A request frame's ``config`` object and ``problem`` field, validated.

    ``problem`` is sugar for ``config.problem``; naming the kind in
    both places is a ``bad_request``.
    """
    config_spec = frame.get("config", {})
    if not isinstance(config_spec, dict):
        raise ProtocolError("'config' must be an object", code="bad_request")
    config_spec = dict(config_spec)
    problem = frame.get("problem")
    if problem is not None:
        if not isinstance(problem, str):
            raise ProtocolError("'problem' must be a string", code="bad_request")
        if "problem" in config_spec:
            raise ProtocolError(
                "'problem' given both as a frame field and a config key; "
                "use one",
                code="bad_request",
            )
        config_spec["problem"] = problem
    requested = config_spec.get("problem")
    if requested is not None and requested not in SUPPORTED_PROBLEMS:
        # distinct, non-retriable code: the request is well-formed but
        # names a kind this server build cannot solve
        raise ProtocolError(
            f"unsupported problem kind {requested!r}; this server solves "
            f"{sorted(SUPPORTED_PROBLEMS)}",
            code="unsupported_problem",
        )
    try:
        return config_from_dict(config_spec)
    except SolverConfigError as exc:
        raise ProtocolError(str(exc), code="bad_request") from exc


def solve_request_from_frame(frame: Dict[str, Any]):
    """Validate a ``solve`` frame into ``(SolveRequest, max_report)``.

    ``max_report`` caps how many clique rows the *reply* carries; it is
    not part of the solver configuration (so it never perturbs the
    result-cache key). A ``deadline_s`` budget (seconds of remaining
    client patience, measured at send time) is stamped into the
    request as an absolute :class:`~repro.core.deadline.Deadline` at
    receipt, so every later layer (bridge queue, service, solver) can
    refuse work that can no longer meet it.
    """
    from ..service.request import SolveRequest

    unknown = set(frame) - _SOLVE_KEYS
    if unknown:
        raise ProtocolError(
            f"unknown solve field(s) {sorted(unknown)}", code="bad_request"
        )
    if "graph" not in frame:
        raise ProtocolError("solve frame needs a 'graph'", code="bad_request")
    graph = decode_graph(frame["graph"])
    config = _config_from_frame(frame)
    validate_request_key(frame)
    timeout_s = frame.get("timeout_s")
    if timeout_s is not None and not is_time_budget(timeout_s):
        raise ProtocolError(
            "'timeout_s' must be a positive finite number", code="bad_request"
        )
    deadline_s = frame.get("deadline_s")
    if deadline_s is not None and (
        isinstance(deadline_s, bool)
        or not isinstance(deadline_s, (int, float))
        or not abs(deadline_s) < 1e300  # nan, inf, or past float range
    ):
        raise ProtocolError(
            "'deadline_s' must be a finite number", code="bad_request"
        )
    label = frame.get("label", "")
    if not isinstance(label, str):
        raise ProtocolError("'label' must be a string", code="bad_request")
    max_report = frame.get("max_report")
    if max_report is not None and (
        not isinstance(max_report, int) or max_report < 0
    ):
        raise ProtocolError(
            "'max_report' must be a non-negative integer", code="bad_request"
        )
    checkpoint = None
    ckpt_payload = frame.get("checkpoint")
    if ckpt_payload is not None:
        from ..core.checkpoint import SearchCheckpoint
        from ..errors import CheckpointError

        try:
            checkpoint = SearchCheckpoint.from_dict(
                ckpt_payload, source="<wire checkpoint>"
            )
        except CheckpointError as exc:
            raise ProtocolError(
                f"bad checkpoint payload: {exc}", code="bad_request"
            ) from exc
        # the graph identity is checkable right here; the config
        # fingerprint is stamped from the *executed* config, which
        # admission decides later -- the solver verifies it on resume
        if (
            checkpoint.graph_fingerprint
            and checkpoint.graph_fingerprint != graph.fingerprint()
        ):
            raise ProtocolError(
                "checkpoint was taken against a different graph",
                code="bad_request",
            )
    deadline = None
    if deadline_s is not None:
        from ..core.deadline import Deadline

        # stamped at receipt: the remaining budget starts shrinking on
        # this host's clock from the moment the frame was parsed
        deadline = Deadline.from_limit(
            float(deadline_s), label=f"request {frame.get('id', '?')}"
        )
    request = SolveRequest(
        graph=graph,
        config=config,
        timeout_s=timeout_s,
        label=label,
        checkpoint=checkpoint,
        deadline=deadline,
    )
    return request, max_report


# ----------------------------------------------------------------------
# streaming-session frames (docs/STREAMING.md)
# ----------------------------------------------------------------------
def validate_session_id(frame: Dict[str, Any]) -> str:
    """Validate and return a session frame's ``session`` id."""
    sid = frame.get("session")
    if (
        not isinstance(sid, str)
        or not sid
        or len(sid) > MAX_SESSION_ID_LEN
    ):
        raise ProtocolError(
            "'session' must be a non-empty string of at most "
            f"{MAX_SESSION_ID_LEN} characters",
            code="bad_request",
        )
    return sid


def open_session_from_frame(frame: Dict[str, Any]):
    """Validate an ``open-session`` frame into ``(sid, graph, config)``.

    The session id is *client-chosen* (the cluster router pins the
    session to a backend by hashing it before any server state
    exists). The graph payload and config/problem validation reuse the
    ``solve`` frame rules; the config must describe a max-clique
    solve, since the session maintains ω(G).
    """
    unknown = set(frame) - _OPEN_SESSION_KEYS
    if unknown:
        raise ProtocolError(
            f"unknown open-session field(s) {sorted(unknown)}",
            code="bad_request",
        )
    sid = validate_session_id(frame)
    if "graph" not in frame:
        raise ProtocolError(
            "open-session frame needs a 'graph'", code="bad_request"
        )
    graph = decode_graph(frame["graph"])
    config = _config_from_frame(frame)
    if config.problem != "max-clique":
        raise ProtocolError(
            f"sessions maintain ω(G); problem kind {config.problem!r} is not "
            "streamable",
            code="bad_request",
        )
    if config.omega_floor:
        raise ProtocolError(
            "omega_floor is managed by the session's incremental solver",
            code="bad_request",
        )
    validate_request_key(frame)
    return sid, graph, config


#: cap on one mutation batch's combined insert+delete edge count
MAX_MUTATION_EDGES = 100_000

#: cap on the vertices one frame may make the server allocate (memory
#: grows per vertex up to the largest id): inline graphs and mutations
#: keep their ids below it. 32x road-grid-360, the largest suite graph
MAX_INLINE_VERTICES = 1 << 22

#: cap on the edge-list text one ``edgelist-gz`` payload may inflate to,
#: enforced while inflating: a 43 KiB payload of ``0 1`` lines already
#: inflates to 32 MiB, so a frame under the frame cap could otherwise
#: ask for gigabytes. 2.7x the edge text of fb-monster-50x280 (11.66 MiB),
#: the largest suite graph
MAX_INLINE_TEXT_BYTES = 32 << 20


def _check_vertex_ids(pairs, what: str) -> None:
    """Refuse ``(u, v)`` pairs with an id outside ``[0, MAX_INLINE_VERTICES)``."""
    if not all(
        0 <= u < MAX_INLINE_VERTICES and 0 <= v < MAX_INLINE_VERTICES
        for u, v in pairs
    ):
        raise ProtocolError(
            f"{what} vertex ids must lie in [0, {MAX_INLINE_VERTICES})",
            code="bad_request",
        )


def mutation_from_frame(frame: Dict[str, Any]):
    """Validate a ``mutate`` frame into ``(sid, inserts, deletes)``."""
    unknown = set(frame) - _MUTATE_KEYS
    if unknown:
        raise ProtocolError(
            f"unknown mutate field(s) {sorted(unknown)}", code="bad_request"
        )
    sid = validate_session_id(frame)
    batches = []
    for key in ("insert", "delete"):
        pairs = frame.get(key, [])
        if not isinstance(pairs, list):
            raise ProtocolError(f"'{key}' must be a list", code="bad_request")
        out = []
        for pair in pairs:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(
                    isinstance(x, int) and not isinstance(x, bool)
                    for x in pair
                )
            ):
                raise ProtocolError(
                    f"'{key}' entries must be [u, v] integer pairs",
                    code="bad_request",
                )
            out.append((pair[0], pair[1]))
        batches.append(out)
    inserts, deletes = batches
    if not inserts and not deletes:
        raise ProtocolError(
            "mutate frame needs a non-empty 'insert' or 'delete'",
            code="bad_request",
        )
    if len(inserts) + len(deletes) > MAX_MUTATION_EDGES:
        raise ProtocolError(
            f"mutation batch exceeds {MAX_MUTATION_EDGES} edges",
            code="bad_request",
        )
    _check_vertex_ids(inserts + deletes, "mutation")
    validate_request_key(frame)
    return sid, inserts, deletes


def session_frame(
    ftype: str, view, request_id: Optional[str] = None
) -> Dict[str, Any]:
    """Build a session-state frame (``session-opened`` / ``mutated`` /
    ``update`` / ``session-closed``) from a
    :class:`~repro.stream.session.SessionView`."""
    frame: Dict[str, Any] = {"type": ftype}
    frame.update(view.to_dict() if hasattr(view, "to_dict") else dict(view))
    if request_id is not None:
        frame["id"] = request_id
    return frame


def result_frame(
    request_id: Optional[str], record, max_report: Optional[int] = None
) -> Dict[str, Any]:
    """Build a ``result`` frame from a finished :class:`JobRecord`.

    The record dict is the same JSON shape ``repro batch --json``
    emits; clique membership rows ride alongside (capped by
    ``max_report``) so a remote ``solve`` is byte-comparable with the
    in-process one.
    """
    frame: Dict[str, Any] = {"type": "result", "record": record.to_dict()}
    if request_id is not None:
        frame["id"] = request_id
    # k-clique-count results carry no membership rows at all; maximal
    # enumeration rows are tuples rather than arrays -- both normalise
    # to plain int lists here
    rows = getattr(record.result, "cliques", None)
    if rows is not None:
        if max_report is not None:
            rows = rows[:max_report]
        frame["cliques"] = [[int(v) for v in row] for row in rows]
    frame["exit_code"] = exit_code_for_record(frame["record"])
    return frame


def exit_code_for_record(record: Dict[str, Any]) -> int:
    """CLI exit status for a record dict (``repro solve`` semantics)."""
    if record.get("status") == "ok":
        return 0
    error = record.get("error") or ""
    for prefix, code in _ERROR_EXIT_CODES.items():
        if error.startswith(prefix):
            return code
    return 1
