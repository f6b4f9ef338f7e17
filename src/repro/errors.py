"""Exception types shared across the :mod:`repro` package.

The simulated device intentionally mirrors the failure modes of a real
GPU run: exhausting the configured device-memory budget raises
:class:`DeviceOOMError` (never a wrong answer), and malformed graph
inputs raise :class:`GraphFormatError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Type, Union

__all__ = [
    "ERROR_CODES",
    "ReproError",
    "AdmissionRejectedError",
    "CheckpointError",
    "DeviceLostError",
    "DeviceOOMError",
    "DeviceStateError",
    "FaultPlanError",
    "FlakyAllocError",
    "GraphFormatError",
    "JobSpecError",
    "NetFaultPlanError",
    "ProtocolError",
    "ServerError",
    "SessionError",
    "SolverConfigError",
    "SolveTimeoutError",
    "TransientDeviceError",
    "TransientKernelError",
    "read_json",
]


#: Wire error codes: ``code -> (retriable, exit_code)``. Retriable
#: means the identical request may succeed later (the client's backoff
#: loop is allowed to retry); exit_code is the suggested CLI status.
#: Error frames and :class:`ServerError` take both from this one table.
ERROR_CODES: Dict[str, Tuple[bool, int]] = {
    "bad_frame": (False, 1),
    "frame_too_large": (False, 1),
    "unsupported_protocol": (False, 1),
    "handshake_required": (False, 1),
    "unknown_type": (False, 1),
    "bad_request": (False, 1),
    #: the server build does not solve the requested problem kind --
    #: retrying the identical request can never succeed
    "unsupported_problem": (False, 1),
    "rate_limited": (True, 1),
    "server_busy": (True, 1),
    "draining": (True, 1),
    "too_many_connections": (True, 1),
    #: a router found no healthy backend to place the request on --
    #: backends may recover, so the identical request can succeed later
    "no_backend": (True, 1),
    #: the request's ``deadline_s`` budget expired before (or while)
    #: the server could dispatch it -- retriable so the caller may try
    #: again with a fresh budget, exit code 3 like a solve timeout
    "deadline_exceeded": (True, 3),
    "cancelled": (False, 1),
    "internal": (False, 1),
    #: streaming sessions (docs/STREAMING.md): the named session id is
    #: not resident on this server -- resending cannot make it appear
    "unknown_session": (False, 1),
    #: an ``open-session`` named an id that is already resident with
    #: a different identity (not an idempotent retry of the open)
    "session_exists": (False, 1),
    #: the backend holding this session's resident graph died; the
    #: state is gone, so retrying the same frame can never succeed --
    #: the client must open a fresh session and replay its stream
    "session_lost": (False, 1),
    #: the server's bounded session registry is full; closes elsewhere
    #: may free a slot, so the identical open can succeed later
    "too_many_sessions": (True, 1),
}


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DeviceOOMError(ReproError, MemoryError):
    """Raised when an allocation would exceed the device memory budget.

    Mirrors ``cudaErrorMemoryAllocation`` on a real device. The paper's
    evaluation (Table I, Figure 6) counts runs that end in this state;
    the experiment harness catches it and records an OOM outcome.

    Attributes
    ----------
    requested:
        Bytes requested by the failing allocation.
    in_use:
        Bytes already allocated on the device at the time of failure.
    budget:
        Total device memory budget in bytes.
    """

    def __init__(self, requested: int, in_use: int, budget: int) -> None:
        self.requested = int(requested)
        self.in_use = int(in_use)
        self.budget = int(budget)
        super().__init__(
            f"device OOM: requested {self.requested} B with {self.in_use} B "
            f"in use of a {self.budget} B budget"
        )


class DeviceStateError(ReproError, RuntimeError):
    """Raised on invalid device operations (e.g. use-after-free)."""


class TransientDeviceError(ReproError, RuntimeError):
    """Base class for *transient* device faults.

    A transient fault poisons one operation, not the device: retrying
    the same work on the same device is expected to succeed. The solve
    service retries these with the *same* configuration (bounded by
    ``DegradationPolicy.max_transient_retries``) instead of walking the
    degradation ladder, so a transient fault never changes the answer.
    """


class TransientKernelError(TransientDeviceError):
    """A kernel launch failed transiently (injected fault).

    Mirrors a sporadic ``cudaErrorLaunchFailure`` that a reset-free
    retry survives. Raised by the fault injector
    (:mod:`repro.gpusim.faults`) at planned launch ordinals.
    """


class FlakyAllocError(TransientDeviceError):
    """A device allocation failed transiently (injected fault).

    Unlike :class:`DeviceOOMError` this does not mean the budget is
    exhausted -- the same allocation retried is expected to succeed, so
    the service must *not* degrade the configuration in response.
    """


class DeviceLostError(ReproError, RuntimeError):
    """The device fell off the bus (injected fault, fatal per-device).

    Mirrors ``cudaErrorDeviceUnavailable``: every subsequent operation
    on the device raises this too, until the pool replaces the device.
    The windowed search attaches its latest
    :class:`~repro.core.checkpoint.SearchCheckpoint` to the propagating
    exception (attribute ``checkpoint``) so the service can migrate the
    job to a healthy device and resume from the last completed window.
    """

    def __init__(self, message: str = "device lost") -> None:
        super().__init__(message)
        #: latest windowed-search checkpoint, attached on the way out
        self.checkpoint = None


class FaultPlanError(ReproError, ValueError):
    """Raised when a fault-plan file or specification is invalid."""


class NetFaultPlanError(ReproError, ValueError):
    """Raised when a network fault-plan file or specification is invalid.

    The wire-layer sibling of :class:`FaultPlanError`: covers schema
    mismatches, unknown fault kinds, and malformed partition windows in
    ``repro-net-fault-plan/1`` documents (:mod:`repro.netchaos.plan`).
    """


class CheckpointError(ReproError, ValueError):
    """Raised when a search checkpoint cannot be applied.

    Covers schema mismatches, corrupt files, and resuming against a
    different graph or solver configuration than the checkpoint was
    taken under.
    """


class GraphFormatError(ReproError, ValueError):
    """Raised when a graph file or edge list cannot be parsed/validated."""


class SessionError(ReproError, RuntimeError):
    """Raised on invalid streaming-session operations.

    Unknown or duplicate session ids, malformed mutation batches, a
    closed session, or the session cap. ``code`` carries the wire
    error code the server answers with (``unknown_session`` /
    ``session_exists`` / ``too_many_sessions`` / ``bad_request``, see
    docs/STREAMING.md).
    """

    def __init__(self, message: str, code: str = "bad_request") -> None:
        self.code = code
        super().__init__(message)


class SolverConfigError(ReproError, ValueError):
    """Raised when a :class:`repro.core.config.SolverConfig` is invalid."""


class SolveTimeoutError(ReproError, TimeoutError):
    """Raised when a solve exceeds its configured host wall-time limit.

    The experiment harness records these runs as ``timeout`` outcomes,
    mirroring the abandoned pathological runs of the paper's
    evaluation.
    """


class AdmissionRejectedError(ReproError, RuntimeError):
    """Raised when admission control refuses to launch a solve.

    The solve service's admission controller
    (:mod:`repro.service.admission`) rejects jobs whose estimated
    device-memory floor exceeds the budget *before* any device work is
    charged; batch runs record these as ``rejected`` job outcomes
    instead of raising.

    Attributes
    ----------
    reason:
        Human-readable rejection reason (also the exception message).
    estimated_bytes:
        Estimated minimum device bytes the solve would need.
    budget_bytes:
        Device memory budget the estimate was checked against.
    """

    def __init__(
        self, reason: str, estimated_bytes: int = 0, budget_bytes: int = 0
    ) -> None:
        self.reason = reason
        self.estimated_bytes = int(estimated_bytes)
        self.budget_bytes = int(budget_bytes)
        super().__init__(reason)


class JobSpecError(ReproError, ValueError):
    """Raised when a batch job file or job specification is invalid."""


class ProtocolError(ReproError, ValueError):
    """Raised when a ``repro-wire/1`` frame cannot be parsed or applied.

    Covers malformed JSON, missing/ill-typed fields, oversized frames,
    and protocol-version mismatches. The server answers these with an
    ``error`` frame (see docs/SERVER.md); the client raises them when
    the *server* sends something unintelligible.

    Attributes
    ----------
    code:
        Machine-readable error code (``bad_frame``,
        ``frame_too_large``, ``unsupported_protocol``, ...), the same
        vocabulary error frames carry on the wire.
    """

    def __init__(self, message: str, code: str = "bad_frame") -> None:
        self.code = code
        super().__init__(message)


class ServerError(ReproError, RuntimeError):
    """An ``error`` frame received from, or answered by, the solve server.

    Raised by the client library when the server rejects or fails a
    request, and by the server's and router's handlers to refuse one.
    ``retriable`` mirrors the frame: True means the same request may
    succeed later (rate limit, full queue, draining server) and the
    client's backoff loop is allowed to retry it.

    Attributes
    ----------
    code:
        Wire error code (see docs/SERVER.md for the full table).
    retriable:
        Whether retrying the identical request can succeed.
    exit_code:
        Suggested CLI exit status, reusing the ``repro solve``
        semantics (2 OOM, 3 timeout, 4 device lost, 1 otherwise).
    retry_after_s:
        Seconds the sender suggests waiting before a retry, or None.

    ``retriable`` and ``exit_code`` default to the :data:`ERROR_CODES`
    entry of ``code`` (``internal``'s for a code it does not list).
    """

    def __init__(
        self,
        message: str,
        code: str = "internal",
        retriable: Optional[bool] = None,
        exit_code: Optional[int] = None,
        retry_after_s: Optional[float] = None,
    ) -> None:
        table = ERROR_CODES.get(code, ERROR_CODES["internal"])
        self.code = code
        self.retriable = table[0] if retriable is None else bool(retriable)
        self.exit_code = table[1] if exit_code is None else int(exit_code)
        self.retry_after_s = retry_after_s
        super().__init__(message)


def read_json(path: Union[str, Path], error: Type[ReproError], what: str) -> Any:
    """Parse the JSON input file ``path``, refusing it with ``error``.

    The one reader behind every JSON input file (jobs, fault plans,
    checkpoints): a file that cannot be read, text that is not JSON,
    bytes that are not UTF-8, an integer past the interpreter's digit
    limit and nesting past the recursion limit all raise ``error``
    with a message that names the path once; ``what`` names the file's
    role in it.
    """
    p = Path(path)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {what} {p}: {exc.strerror or exc}")
    except (ValueError, RecursionError) as exc:
        raise error(f"{p} is not valid JSON: {exc}")
