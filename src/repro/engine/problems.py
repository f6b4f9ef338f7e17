"""Pluggable problem kinds for the level engine.

The paper's count / scan / output level loop is the computational
shape shared by three problems: maximum clique enumeration (this
paper), k-clique counting (Almasri et al.), and maximal clique
enumeration (Almasri/Nagi/Chang) -- see PAPERS.md. A
:class:`ProblemKind` encapsulates everything that differs between
them so :class:`~repro.engine.driver.LevelDriver` and
:func:`~repro.engine.sweep.window_sweep` stay single implementations:

* the **count/output kernel bodies** (``count`` / ``output``; all
  kinds currently share the paper's passes, but a kind may override
  them);
* **ω̄ pruning** (``prunes``, the one flag): max-clique prunes
  sublists that cannot reach the bound, may exit early and
  checkpoints its windows; the counting and enumeration kinds must
  visit every clique, so their bar is 0 (the driver's pruning block is
  a no-op at bar 0);
* the **level-termination rule**: ``stop_level`` stops k-clique
  counting at level ``k``; the other kinds run until no new cliques
  are generated;
* the **per-level harvest** (``on_level`` / ``harvest_stop``):
  maximal-enum collects zero-extension entries (after a maximality
  check against the full graph), k-clique counting reads the size of
  the stopping level;
* the **answer**: a kind that does not prune turns its
  :class:`KindState` accumulator (threaded through the search by the
  driver, merged across windows by the sweep) into its result
  (``result``), and answers some graphs with no search at all
  (``closed_form``). The search stages assemble max-clique's result.

``MAX_CLIQUE`` is the default kind and is behaviour-identical to the
pre-kind driver: identity bar, no stop level, no harvest, the same
kernels -- the max-clique launch sequence, costs, and results are
byte-for-byte unchanged.

Maximal-enum correctness: the oriented expansion emits every clique
of size >= 2 exactly once (as its rank-sorted vertex sequence), and an
entry whose extension count is 0 has no *forward* extension. Such a
clique may still be contained in a larger clique through a
lower-ranked vertex, so each zero-extension entry is verified against
the full adjacency (a clique is maximal iff no vertex is adjacent to
all of its members). Singleton maximal cliques (isolated vertices)
never enter the 2-clique list and are added by ``result``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

from ..core.config import PROBLEM_KINDS
from ..core.result import KCliqueCountResult, MaximalEnumResult
from .passes import count_pass, output_pass

__all__ = [
    "KindState",
    "ProblemKind",
    "KCliqueCountKind",
    "MaximalEnumKind",
    "MAX_CLIQUE",
    "resolve_kind",
    "merge_state",
    "PROBLEM_KINDS",
]


@dataclass
class KindState:
    """Mutable per-search accumulator a :class:`ProblemKind` fills.

    ``count`` is the kind's scalar figure (k-cliques counted, maximal
    cliques found); ``cliques`` holds harvested cliques as sorted
    vertex tuples (maximal-enum only).
    """

    count: int = 0
    cliques: List[Tuple[int, ...]] = field(default_factory=list)


class ProblemKind:
    """One problem the level loop can solve (default: max-clique).

    Subclasses override the class attributes and hooks; the base class
    *is* the max-clique kind, and every hook defaults to the behaviour
    the paper's Algorithm 2 specifies.
    """

    #: stable identifier; must be a member of ``PROBLEM_KINDS``
    name = "max-clique"
    #: whether the ω̄ bound applies: pruning sub-bound sublists, the
    #: sound early exit (Algorithm 2 line 36), and window checkpoints
    #: (a windows-done checkpoint describes no accumulated state)
    prunes = True
    #: stop expanding once the head node reaches this level
    stop_level: Optional[int] = None

    # ------------------------------------------------------------------
    # kernel bodies (the paper's passes; kinds may substitute their own)
    # ------------------------------------------------------------------
    def count(self, graph, vertex, tail, chunk_pairs) -> np.ndarray:
        """The CountCliques pass body."""
        return count_pass(graph, vertex, tail, chunk_pairs)

    def output(
        self, graph, vertex, tail, counts, offsets, new_vertex, new_sublist,
        chunk_pairs,
    ) -> None:
        """The OutputNewCliques pass body."""
        output_pass(
            graph, vertex, tail, counts, offsets, new_vertex, new_sublist,
            chunk_pairs,
        )

    # ------------------------------------------------------------------
    # per-search hooks
    # ------------------------------------------------------------------
    def new_state(self) -> Optional[KindState]:
        """Fresh accumulator for one search (None: nothing to collect)."""
        return None

    def closed_form(self, graph) -> Optional[KindState]:
        """The accumulator of a graph answered with no search, or None."""
        return None

    def effective_bar(self, omega_bar: int) -> int:
        """The pruning bound the driver applies (0 disables pruning)."""
        return omega_bar if self.prunes else 0

    def on_level(self, graph, device, clique_list, counts, state) -> None:
        """Harvest hook, called after the count pass of every level.

        ``clique_list.head`` is the level being expanded and ``counts``
        its per-entry extension counts (un-pruned for non-pruning
        kinds).
        """

    def harvest_stop(self, clique_list, state) -> None:
        """Harvest hook, called when ``stop_level`` ends the search."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class KCliqueCountKind(ProblemKind):
    """Count k-cliques: stop at level ``k``, pruning disabled.

    The clique list's node at level ``k`` holds every k-clique exactly
    once (the same fact :func:`repro.core.clique_counts.clique_profile`
    reads level sizes from), so the count is the stopping node's size.
    """

    name = "k-clique-count"
    prunes = False

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.stop_level = int(k)

    def new_state(self) -> KindState:
        return KindState()

    def closed_form(self, graph) -> Optional[KindState]:
        """k = 1 counts vertices and k = 2 edges (the level loop's root
        is already level 2); an edgeless graph has no larger clique."""
        if self.stop_level <= 2:
            n, m = graph.num_vertices, graph.num_edges
            return KindState(count=n if self.stop_level == 1 else m)
        return KindState() if graph.num_edges == 0 else None

    def result(self, graph, config, state, found_by, **telemetry):
        """The :class:`KCliqueCountResult` of a finished count."""
        return KCliqueCountResult(
            k=self.stop_level, count=int(state.count), found_by=found_by,
            **telemetry,
        )

    def harvest_stop(self, clique_list, state) -> None:
        state.count += clique_list.head.size


class MaximalEnumKind(ProblemKind):
    """Enumerate maximal cliques: harvest zero-extension entries.

    Every level's entries with extension count 0 are candidate maximal
    cliques; each is materialised (Figure 1 back-pointer walk) and kept
    iff no vertex of the graph is adjacent to all of its members. The
    verification is charged as one ``check_maximal`` launch with a
    thread per candidate (each thread intersects the members'
    adjacency lists, cost ~ level).
    """

    name = "maximal-enum"
    prunes = False

    def new_state(self) -> KindState:
        return KindState()

    def closed_form(self, graph) -> Optional[KindState]:
        """An edgeless graph's maximal cliques are its vertices, which
        :meth:`result` adds as singletons."""
        return KindState() if graph.num_edges == 0 else None

    def result(self, graph, config, state, found_by, **telemetry):
        """The :class:`MaximalEnumResult`: the harvested cliques plus
        every isolated vertex as a singleton, in canonical (size,
        lexicographic) order, capped at ``max_cliques_report`` (the
        count stays exact)."""
        singles = [(int(v),) for v in np.flatnonzero(graph.degrees == 0)]
        ordered = sorted(singles + list(state.cliques), key=lambda c: (len(c), c))
        cap = config.max_cliques_report
        return MaximalEnumResult(
            num_maximal_cliques=len(ordered),
            max_clique_size=len(ordered[-1]) if ordered else 0,
            cliques=ordered[:cap],
            enumerated_all=len(ordered) <= cap,
            found_by=found_by,
            **telemetry,
        )

    def on_level(self, graph, device, clique_list, counts, state) -> None:
        zero = np.flatnonzero(counts == 0)
        if zero.size == 0:
            return
        level = clique_list.head.level
        device.launch(
            float(level), n_threads=int(zero.size), name="check_maximal"
        )
        rows = clique_list.read_cliques(entries=zero)
        for row in rows:
            members = row.astype(np.int64)
            common = graph.neighbors(int(members[0]))
            for v in members[1:]:
                if common.size == 0:
                    break
                common = np.intersect1d(
                    common, graph.neighbors(int(v)), assume_unique=True
                )
            if common.size == 0:
                state.count += 1
                state.cliques.append(tuple(int(v) for v in np.sort(members)))


#: The default kind: the paper's maximum clique enumeration.
MAX_CLIQUE = ProblemKind()


def resolve_kind(config) -> ProblemKind:
    """The :class:`ProblemKind` for a :class:`~repro.core.config.SolverConfig`."""
    if config.problem == "k-clique-count":
        return KCliqueCountKind(config.k)
    if config.problem == "maximal-enum":
        return MaximalEnumKind()
    if config.problem != "max-clique":  # pragma: no cover - config validates
        raise ValueError(f"unknown problem kind {config.problem!r}")
    return MAX_CLIQUE


def merge_state(acc: Optional[KindState], part: Any) -> None:
    """Fold one window's (or lane's) state into the sweep accumulator."""
    if acc is None or part is None:
        return
    acc.count += part.count
    acc.cliques.extend(part.cliques)
