"""Result and statistics types returned by the solver; each result
class carries its problem kind's :class:`Answer`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple, Union, get_args

import numpy as np

from ..gpusim.device import DeviceStats

__all__ = [
    "HeuristicReport",
    "SetupStats",
    "LevelStats",
    "WindowStats",
    "MaxCliqueResult",
    "KCliqueCountResult",
    "MaximalEnumResult",
    "SolveResult",
    "Answer",
    "ANSWERS",
]


@dataclass
class HeuristicReport:
    """Outcome of the greedy lower-bound heuristic.

    Attributes
    ----------
    kind:
        String value of the heuristic variant that ran.
    lower_bound:
        Clique size found (ω̄); 1 when no heuristic ran on a non-empty
        graph.
    clique:
        The vertices of the clique the heuristic found (empty when no
        heuristic ran).
    model_time_s / wall_time_s:
        Device model time and host wall time spent in the heuristic,
        including any k-core decomposition it required.
    """

    kind: str
    lower_bound: int
    clique: np.ndarray
    model_time_s: float = 0.0
    wall_time_s: float = 0.0


@dataclass
class SetupStats:
    """Statistics from forming the 2-clique list (paper Section IV-C)."""

    total_edges: int = 0
    prepruned_vertices: int = 0
    pruned_sublists: int = 0
    pruned_2cliques: int = 0
    kept_2cliques: int = 0

    @property
    def pruned_fraction(self) -> float:
        if self.total_edges == 0:
            return 0.0
        return self.pruned_2cliques / self.total_edges


@dataclass
class LevelStats:
    """Per-level candidate accounting of the breadth-first search."""

    level: int
    candidates: int
    generated: int
    pruned: int


@dataclass
class WindowStats:
    """Per-window accounting of the windowed search."""

    index: int
    start: int
    end: int
    peak_bytes: int
    best_clique_size: int
    levels: int


@dataclass(frozen=True)
class Answer:
    """What one problem kind's answer is, and how it prints."""

    #: ``(result attribute, record field)`` pairs: the attributes
    #: ``solve --json`` lists, in order, and the
    #: :class:`~repro.service.request.JobRecord` field each fills, which
    #: ``client solve --json`` reads back (None: no record field;
    #: ``cliques`` is the wire reply's clique rows)
    fields: Tuple[Tuple[str, Optional[str]], ...]
    #: ``batch`` figures of an ok job, formatted over its record
    batch: str
    #: ``client solve`` headline, formatted over the wire record
    headline: str
    #: noun of the clique rows (``maximum``, ``maximal``); None: no rows
    rows: Optional[str] = None
    #: the attribute and record field counting every row
    total: Optional[str] = None
    #: whether that count is exact even when not every row was enumerated
    total_exact: bool = False


@dataclass
class MaxCliqueResult:
    """Everything a solve produces.

    Attributes
    ----------
    clique_number:
        ω(G), the exact maximum clique size.
    num_maximum_cliques:
        Exact count of maximum cliques (1 when only one was solved
        for, i.e. windowed mode).
    cliques:
        Materialised maximum cliques, shape ``(min(count, cap), ω)``;
        each row's vertex set is a maximum clique.
    found_by:
        ``"search"``, ``"heuristic"`` (setup proved the heuristic
        clique unique), or ``"trivial"`` (edgeless / tiny graphs).
    enumerated_all:
        Whether every maximum clique was enumerated.
    heuristic:
        Lower-bound report.
    setup / levels / windows:
        Phase statistics.
    candidates_stored:
        Total clique-list entries ever stored (memory pressure
        metric).
    candidates_pruned:
        Candidates eliminated by ω̄-pruning across setup + search.
    peak_memory_bytes:
        Device memory high-water mark during the solve.
    search_memory_bytes:
        Clique-list-only memory: total candidate storage for the full
        breadth-first search (nothing is ever deleted), or the largest
        single-window clique list for the windowed search. This is the
        quantity Figure 6 compares.
    device_stats:
        Final device counter snapshot.
    model_time_s / wall_time_s:
        Total deterministic model time and host wall time.
    stage_times:
        Model seconds per pipeline stage, in execution order (stage
        names as in :mod:`repro.pipeline.stages`); empty for trivial
        solves that ran no pipeline.
    """

    #: problem kind tag shared by every :data:`SolveResult` variant
    problem: ClassVar[str] = "max-clique"
    answer: ClassVar[Answer] = Answer(
        fields=(
            ("problem", None),
            ("clique_number", "clique_number"),
            ("num_maximum_cliques", "num_maximum_cliques"),
            ("cliques", "cliques"),
            ("found_by", None),
            ("enumerated_all", "enumerated_all"),
            ("heuristic", None),
            ("pruned_fraction", None),
        ),
        batch="omega={clique_number} x{num_maximum_cliques}",
        headline="omega = {clique_number}, {num_maximum_cliques} maximum clique(s)",
        rows="maximum",
        total="num_maximum_cliques",
    )

    clique_number: int
    num_maximum_cliques: int
    cliques: np.ndarray
    found_by: str
    enumerated_all: bool
    heuristic: HeuristicReport
    setup: SetupStats = field(default_factory=SetupStats)
    levels: List[LevelStats] = field(default_factory=list)
    windows: List[WindowStats] = field(default_factory=list)
    candidates_stored: int = 0
    candidates_pruned: int = 0
    peak_memory_bytes: int = 0
    search_memory_bytes: int = 0
    device_stats: Optional[DeviceStats] = None
    model_time_s: float = 0.0
    wall_time_s: float = 0.0
    stage_times: Dict[str, float] = field(default_factory=dict)

    @property
    def pruned_fraction(self) -> float:
        """Fraction of generated candidates eliminated by pruning."""
        total = self.candidates_pruned + self.candidates_stored
        if total == 0:
            return 0.0
        return self.candidates_pruned / total

    def throughput_eps(self, num_edges: int) -> float:
        """Edges processed per second of model time (paper Figs. 2-3)."""
        if self.model_time_s <= 0:
            return float("inf")
        return num_edges / self.model_time_s

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"omega={self.clique_number} x{self.num_maximum_cliques} "
            f"(by {self.found_by}), peak_mem={self.peak_memory_bytes / 2**20:.2f} MiB, "
            f"model_time={self.model_time_s * 1e3:.3f} ms, "
            f"pruned={self.pruned_fraction:.1%}"
        )


@dataclass
class KCliqueCountResult:
    """Result of a ``problem="k-clique-count"`` solve.

    Attributes
    ----------
    k:
        The clique size that was counted.
    count:
        Exact number of k-cliques in the graph (every k-clique appears
        exactly once at level ``k`` of the unpruned expansion).
    found_by:
        ``"search"`` or ``"trivial"`` (k <= 2 or edgeless graphs).
    setup / levels / windows / candidates_* / *_memory_bytes /
    device_stats / model_time_s / wall_time_s / stage_times:
        Same telemetry as :class:`MaxCliqueResult`.
    """

    problem: ClassVar[str] = "k-clique-count"
    answer: ClassVar[Answer] = Answer(
        fields=(
            ("problem", "problem"),
            ("k", "k"),
            ("count", "k_clique_count"),
            ("found_by", None),
        ),
        batch="count[k={k}]={k_clique_count}",
        headline="{k_clique_count} {k}-clique(s)",
    )
    #: a count covers every k-clique; it stores no rows to cap
    enumerated_all: ClassVar[bool] = True

    k: int
    count: int
    found_by: str = "search"
    setup: SetupStats = field(default_factory=SetupStats)
    levels: List[LevelStats] = field(default_factory=list)
    windows: List[WindowStats] = field(default_factory=list)
    candidates_stored: int = 0
    candidates_pruned: int = 0
    peak_memory_bytes: int = 0
    search_memory_bytes: int = 0
    device_stats: Optional[DeviceStats] = None
    model_time_s: float = 0.0
    wall_time_s: float = 0.0
    stage_times: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.count} {self.k}-cliques (by {self.found_by}), "
            f"peak_mem={self.peak_memory_bytes / 2**20:.2f} MiB, "
            f"model_time={self.model_time_s * 1e3:.3f} ms"
        )


@dataclass
class MaximalEnumResult:
    """Result of a ``problem="maximal-enum"`` solve.

    Attributes
    ----------
    num_maximal_cliques:
        Exact number of maximal cliques in the graph (always exact,
        even when ``cliques`` is capped).
    max_clique_size:
        Size of the largest maximal clique found, i.e. ω(G).
    cliques:
        Materialised maximal cliques as sorted vertex tuples in
        canonical (size, lexicographic) order, capped at the config's
        ``max_cliques_report``.
    enumerated_all:
        Whether every maximal clique was materialised into
        ``cliques`` (False when the cap truncated the list).
    found_by:
        ``"search"`` or ``"trivial"`` (empty / edgeless graphs).
    setup / levels / windows / candidates_* / *_memory_bytes /
    device_stats / model_time_s / wall_time_s / stage_times:
        Same telemetry as :class:`MaxCliqueResult`.
    """

    problem: ClassVar[str] = "maximal-enum"
    answer: ClassVar[Answer] = Answer(
        fields=(
            ("problem", "problem"),
            ("num_maximal_cliques", "num_maximal_cliques"),
            ("max_clique_size", "clique_number"),
            ("cliques", "cliques"),
            ("found_by", None),
            ("enumerated_all", "enumerated_all"),
        ),
        batch="maximal={num_maximal_cliques} omega={clique_number}",
        headline="{num_maximal_cliques} maximal clique(s), omega = {clique_number}",
        rows="maximal",
        total="num_maximal_cliques",
        total_exact=True,
    )

    num_maximal_cliques: int
    max_clique_size: int
    cliques: List[Tuple[int, ...]]
    enumerated_all: bool
    found_by: str = "search"
    setup: SetupStats = field(default_factory=SetupStats)
    levels: List[LevelStats] = field(default_factory=list)
    windows: List[WindowStats] = field(default_factory=list)
    candidates_stored: int = 0
    candidates_pruned: int = 0
    peak_memory_bytes: int = 0
    search_memory_bytes: int = 0
    device_stats: Optional[DeviceStats] = None
    model_time_s: float = 0.0
    wall_time_s: float = 0.0
    stage_times: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.num_maximal_cliques} maximal cliques "
            f"(largest {self.max_clique_size}, by {self.found_by}), "
            f"peak_mem={self.peak_memory_bytes / 2**20:.2f} MiB, "
            f"model_time={self.model_time_s * 1e3:.3f} ms"
        )


#: Any solve result, tagged by its class-level ``problem`` attribute.
SolveResult = Union[MaxCliqueResult, KCliqueCountResult, MaximalEnumResult]

#: every problem kind's answer, keyed by its ``problem`` name
ANSWERS: Dict[str, Answer] = {
    cls.problem: cls.answer for cls in get_args(SolveResult)
}
