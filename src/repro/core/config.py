"""Solver configuration.

Every knob the paper evaluates is explicit here: heuristic variant
(Section IV-A), orientation key (Section IV-C), within-sublist sort
order (Section IV-C), window size and ordering (Section IV-E), plus
the optional extensions called out in DESIGN.md (colouring-based
pre-pruning, Moon-Moser window sizing).
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Union

from ..errors import SolverConfigError

__all__ = [
    "Heuristic",
    "RankKey",
    "SublistOrder",
    "WindowOrder",
    "SolverConfig",
    "PROBLEM_KINDS",
    "FINGERPRINT_VERSION",
    "config_fingerprint",
    "config_from_dict",
    "is_time_budget",
]

#: The problem kinds the platform solves. The engine maps each name
#: onto a :class:`repro.engine.problems.ProblemKind`; every layer
#: above (service, wire protocol, CLI) validates against this tuple.
PROBLEM_KINDS = ("max-clique", "k-clique-count", "maximal-enum")


def is_time_budget(value) -> bool:
    """Whether ``value`` is a usable wall-clock budget in seconds: a
    positive finite number, not a bool. ``time_limit_s`` and every
    ``timeout_s`` that feeds it (jobs files, solve frames) obey it."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 < value <= sys.float_info.max  # False for nan and 10**400
    )


class Heuristic(enum.Enum):
    """Greedy lower-bound heuristic variant (paper Section IV-A)."""

    NONE = "none"
    SINGLE_DEGREE = "single-degree"
    SINGLE_CORE = "single-core"
    MULTI_DEGREE = "multi-degree"
    MULTI_CORE = "multi-core"

    @property
    def uses_core_numbers(self) -> bool:
        return self in (Heuristic.SINGLE_CORE, Heuristic.MULTI_CORE)

    @property
    def is_multi_run(self) -> bool:
        return self in (Heuristic.MULTI_DEGREE, Heuristic.MULTI_CORE)


class RankKey(enum.Enum):
    """Vertex ranking key for orientation and pre-pruning bounds."""

    DEGREE = "degree"
    CORE = "core"
    INDEX = "index"  # ablation: orientation by vertex id


class SublistOrder(enum.Enum):
    """Order of candidate vertices within each 2-clique sublist."""

    DEGREE = "degree"  # ascending degree (paper default, Section IV-C)
    INDEX = "index"  # natural adjacency order (ablation)


class WindowOrder(enum.Enum):
    """Order in which windowed search visits source-vertex sublists."""

    NATURAL = "natural"  # randomized-id order (paper's baseline)
    ASC_DEGREE = "asc-degree"
    DESC_DEGREE = "desc-degree"


@dataclass
class SolverConfig:
    """Configuration of :class:`repro.core.solver.MaxCliqueSolver`.

    Parameters
    ----------
    heuristic:
        Lower-bound heuristic variant; accepts the enum or its string
        value (e.g. ``"multi-degree"``).
    heuristic_runs:
        Seed count ``h`` for multi-run heuristics; ``None`` means
        ``h = |V|`` as in the paper's experiments.
    orientation_key:
        Key used to orient the edge set (paper: degree).
    sublist_order:
        Within-sublist candidate ordering (paper: ascending degree).
    window_size:
        ``None`` runs the full breadth-first search; an integer runs
        the windowed variant with that nominal 2-clique window length;
        the string ``"auto"`` sizes windows from the Moon-Moser bound
        (extension, see DESIGN.md section 5).
    window_order:
        Sublist visit order for the windowed search.
    adaptive_windowing:
        Recursive-windowing extension (paper Section V-C3): windows
        that exceed device memory split at a sublist boundary and
        retry, recursively. Implies a windowed search.
    window_fanout:
        Concurrent-windows extension (paper Section V-C3): this many
        windows advance together with merged kernel launches. 1 (the
        default) is the paper's sequential sweep. Incompatible with
        ``adaptive_windowing`` and ``early_exit_heuristic``.
    enumerate_all:
        When true (default) enumerate every maximum clique; the
        windowed search forces this off (it finds one maximum clique,
        Section IV-E).
    coloring_preprune:
        Extension: additionally pre-prune vertices whose neighbourhood
        colour count + 1 falls below the heuristic bound.
    early_exit_heuristic:
        Early termination in the spirit of Algorithm 2 line 36: stop
        as soon as no surviving branch can exceed the heuristic bound
        (every count satisfies ``count + k == ω̄``). The paper's
        literal trigger (total count = ω̄ - k + 1) is unsound -- see
        ``repro.core.bfs.bfs_search`` -- so the sound variant is
        implemented. Only valid when not enumerating all maximum
        cliques, and not with ``window_fanout > 1``: concurrent
        windows have no early exit.
    chunk_pairs:
        Host-side vectorisation chunk (pairs per batch); affects wall
        time only, never results or model time.
    max_cliques_report:
        Cap on the number of maximum cliques materialised into the
        result (the total count is always exact).
    time_limit_s:
        Optional host wall-time limit for the whole solve; exceeding
        it raises :class:`~repro.errors.SolveTimeoutError`.
    seed:
        Seed for the randomised choices (window shuffling).
    problem:
        Which problem the level loop solves: ``"max-clique"`` (the
        paper's maximum clique enumeration, the default),
        ``"k-clique-count"`` (stop the loop at level ``k`` and return
        the exact k-clique count; ω̄-pruning disabled), or
        ``"maximal-enum"`` (emit every clique with no extension --
        maximal clique enumeration; ω̄-pruning disabled).
    k:
        The clique size counted by ``problem="k-clique-count"``;
        required there and forbidden for the other kinds.
    omega_floor:
        Pruning floor carried in from outside knowledge (streaming
        sessions: the previous epoch's ω is a valid lower bound after
        edge inserts). The search bound starts at
        ``max(heuristic lower bound, 2, omega_floor)``, so every
        clique of size ``>= omega_floor`` is still enumerated exactly,
        but anything smaller may be pruned away: when the returned
        ``clique_number`` is below the floor the result only means
        "no clique of size >= omega_floor exists" and the reported
        clique rows are a heuristic fallback, not an enumeration.
        Callers that set a floor must therefore discard results whose
        ``clique_number`` falls below it. Max-clique only; part of the
        config fingerprint (a floored solve is a different cache
        identity).
    """

    heuristic: Union[Heuristic, str] = Heuristic.MULTI_DEGREE
    heuristic_runs: Optional[int] = None
    orientation_key: Union[RankKey, str] = RankKey.DEGREE
    sublist_order: Union[SublistOrder, str] = SublistOrder.DEGREE
    window_size: Union[None, int, str] = None
    window_order: Union[WindowOrder, str] = WindowOrder.NATURAL
    adaptive_windowing: bool = False
    window_fanout: int = 1
    enumerate_all: bool = True
    coloring_preprune: bool = False
    early_exit_heuristic: bool = False
    chunk_pairs: int = 1 << 22
    max_cliques_report: int = 10_000
    time_limit_s: Optional[float] = None
    seed: int = 0
    problem: str = "max-clique"
    k: Optional[int] = None
    omega_floor: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.heuristic, str):
            self.heuristic = Heuristic(self.heuristic)
        if isinstance(self.orientation_key, str):
            self.orientation_key = RankKey(self.orientation_key)
        if isinstance(self.sublist_order, str):
            self.sublist_order = SublistOrder(self.sublist_order)
        if isinstance(self.window_order, str):
            self.window_order = WindowOrder(self.window_order)
        if isinstance(self.window_size, str) and self.window_size != "auto":
            raise SolverConfigError(
                f"window_size must be None, an int, or 'auto'; got {self.window_size!r}"
            )
        if isinstance(self.window_size, int) and self.window_size <= 0:
            raise SolverConfigError("window_size must be positive")
        if self.heuristic_runs is not None and self.heuristic_runs <= 0:
            raise SolverConfigError("heuristic_runs must be positive")
        if self.chunk_pairs <= 0:
            raise SolverConfigError("chunk_pairs must be positive")
        if self.max_cliques_report <= 0:
            raise SolverConfigError("max_cliques_report must be positive")
        if self.time_limit_s is not None and not is_time_budget(self.time_limit_s):
            raise SolverConfigError("time_limit_s must be a positive finite number")
        if self.adaptive_windowing and self.window_size is None:
            raise SolverConfigError(
                "adaptive_windowing requires a windowed search; set window_size"
            )
        if self.window_fanout < 1:
            raise SolverConfigError("window_fanout must be at least 1")
        if self.window_fanout > 1 and self.window_size is None:
            raise SolverConfigError(
                "window_fanout requires a windowed search; set window_size"
            )
        if self.window_fanout > 1 and self.adaptive_windowing:
            raise SolverConfigError(
                "window_fanout and adaptive_windowing are mutually exclusive"
            )
        if self.window_fanout > 1 and self.early_exit_heuristic:
            raise SolverConfigError(
                "window_fanout and early_exit_heuristic are mutually exclusive"
            )
        if self.window_size is not None and self.enumerate_all:
            # the windowed search solves for a single maximum clique
            self.enumerate_all = False
        if self.early_exit_heuristic and self.enumerate_all:
            raise SolverConfigError(
                "early_exit_heuristic would miss co-maximum cliques; "
                "disable enumerate_all to use it"
            )
        if self.problem not in PROBLEM_KINDS:
            raise SolverConfigError(
                f"unknown problem kind {self.problem!r}; supported kinds "
                f"are {', '.join(PROBLEM_KINDS)}"
            )
        if self.problem == "k-clique-count":
            if (
                not isinstance(self.k, int)
                or isinstance(self.k, bool)
                or self.k < 1
            ):
                raise SolverConfigError(
                    "problem='k-clique-count' requires a positive integer k"
                )
        elif self.k is not None:
            raise SolverConfigError(
                f"k is only meaningful for problem='k-clique-count' "
                f"(got problem={self.problem!r})"
            )
        if (
            not isinstance(self.omega_floor, int)
            or isinstance(self.omega_floor, bool)
            or self.omega_floor < 0
        ):
            raise SolverConfigError("omega_floor must be a non-negative integer")
        if self.problem != "max-clique":
            # all three are ω̄-bound optimisations: unsound when
            # every clique (not just the maximum ones) must be visited
            if self.early_exit_heuristic:
                raise SolverConfigError(
                    "early_exit_heuristic applies to max-clique only"
                )
            if self.coloring_preprune:
                raise SolverConfigError(
                    "coloring_preprune applies to max-clique only"
                )
            if self.omega_floor:
                raise SolverConfigError(
                    "omega_floor applies to max-clique only"
                )

    @property
    def windowed(self) -> bool:
        return self.window_size is not None

    @property
    def resumable(self) -> bool:
        """Whether a solve under this config can checkpoint and resume.

        Only the sequential windowed max-clique sweep can: concurrent
        windows interleave their ω̄ updates, so a last-completed-window
        checkpoint means nothing there, and the counting and
        enumeration kinds carry cross-window accumulators that a window
        checkpoint does not capture.
        """
        return (
            self.windowed
            and self.window_fanout == 1
            and self.problem == "max-clique"
        )


def config_from_dict(spec: Dict[str, Any]) -> SolverConfig:
    """The :class:`SolverConfig` a ``config`` object spells out.

    The one reader of the ``config`` objects of jobs files and wire
    frames: keys are field names, passed through verbatim. Raises
    :class:`~repro.errors.SolverConfigError` naming any unknown key, or
    saying why the values make no valid config.
    """
    valid = SolverConfig.__dataclass_fields__
    unknown = set(spec) - set(valid)
    if unknown:
        raise SolverConfigError(
            f"unknown config key(s) {sorted(unknown)}; valid keys are the "
            f"SolverConfig fields {sorted(valid)}"
        )
    try:
        return SolverConfig(**spec)
    except (ValueError, TypeError) as exc:
        raise SolverConfigError(f"invalid config: {exc}") from exc


#: config fields that cannot change the solve's *result*, only how
#: long the host takes to produce it -- excluded from fingerprints
_HOST_ONLY_FIELDS = frozenset({"chunk_pairs", "time_limit_s"})

#: Fingerprint schema version. ``v2`` added the ``problem``/``k``
#: fields; ``v3`` added ``omega_floor`` (streaming sessions carry the
#: previous epoch's ω as a pruning floor -- a floored solve prunes
#: differently, so it must cache apart from an unfloored one). A
#: fingerprint with an older prefix MUST NOT be compared against
#: current ones -- it would silently collide with entries whose new
#: fields are at their defaults.
FINGERPRINT_VERSION = "v3"


def config_fingerprint(config: SolverConfig) -> str:
    """Canonical string of the result-relevant config fields.

    Used as half of the service's cache key and stamped into search
    checkpoints so a checkpoint can never be resumed under a
    configuration that would change the answer. Host-side-only knobs
    (``chunk_pairs``, ``time_limit_s``) are excluded.

    The string is prefixed with :data:`FINGERPRINT_VERSION`, bumped
    whenever a result-relevant field is added (``v2``: ``problem`` /
    ``k``; ``v3``: ``omega_floor``), so fingerprints from before the
    field existed never compare equal to any current fingerprint:
    stale cache keys and checkpoints fail loudly instead of silently
    colliding with defaults.
    """
    parts = []
    for f in sorted(fields(config), key=lambda f: f.name):
        if f.name in _HOST_ONLY_FIELDS:
            continue
        value = getattr(config, f.name)
        if isinstance(value, enum.Enum):
            value = value.value
        parts.append(f"{f.name}={value!r}")
    return FINGERPRINT_VERSION + ";" + ";".join(parts)
