"""The breadth-first level driver (paper Algorithm 2, once).

:class:`LevelDriver` is the single implementation of the paper's
count / scan / output level loop. Each iteration expands *every*
candidate of the current level at once:

1. **CountCliques** -- one thread per candidate vertex checks the
   connectivity of each vertex after it in its sublist (a binary
   search per check) and tallies successful lookups; a new sublist
   whose count cannot reach ω̄ (``count + k < ω̄``) is zeroed.
2. **Scan** -- an exclusive scan over counts yields output offsets and
   the size of the next clique-list node.
3. **OutputNewCliques** -- one thread per candidate re-walks its
   sublist tail and writes the surviving vertices, with ``sublistID``
   pointing at the thread's own entry (the shared parent).

The loop ends when no new cliques are generated; every entry of the
deepest node is then a maximum clique of its root (pruning only ever
removes branches that cannot reach ω̄ <= ω, and sublist-order
expansion emits each clique exactly once).

Two launch schedules share this loop:

* **isolated** (:meth:`LevelDriver.run`) -- one search, one lane;
  every kernel is charged for that lane alone. This is the schedule
  of the full enumeration and of each window of the sequential sweep.
* **fused** (:meth:`LevelDriver.run_fused`) -- ``fanout`` windows
  advance their levels together and each level's work across the
  whole group is charged as *one* merged kernel launch (shared launch
  overhead, higher occupancy) -- the concurrent-windows extension of
  paper Section V-C3.

A single-lane fused group is not the isolated schedule: the merged
``OutputNewCliques`` launch is charged before the lanes learn that
none of them produced a clique, so the fused schedule pays one more
launch on its last level (with one lane and the same 2-clique list:
24 vs 23 launches on soc-comm-10x50, 12 vs 11 on road-grid-60).
``fanout=1`` matches the sequential sweep only because
:func:`~repro.engine.sweep.window_sweep` routes it to the isolated
schedule.

Host-side vectorisation note: the per-thread inner loops are
materialised as flat pair arrays in chunks of ``chunk_pairs`` to
bound host memory; chunking affects wall time only. Model time
charges each thread ``tail_length * binary_search_cost + 1`` ops for
the count pass and the same again for the output pass, exactly the
two passes the kernels make.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np

from ..gpusim import primitives as P
from ..gpusim.device import Device
from ..graph.csr import CSRGraph
from ..core.clique_list import CliqueList
from ..core.deadline import Deadline
from ..core.result import LevelStats
from .passes import run_boundaries_host
from .problems import MAX_CLIQUE, ProblemKind

__all__ = ["BFSOutcome", "Lane", "LevelDriver"]


@dataclass
class BFSOutcome:
    """Result of one breadth-first search over a (windowed) root.

    Attributes
    ----------
    clique_list:
        The populated clique list; the head node's entries are the
        deepest cliques found.
    omega:
        Size of the largest clique discovered by this search (the head
        node's level), or 0 when the root was empty.
    levels:
        Per-level candidate statistics.
    stopped_by_heuristic:
        True when the early exit fired: every surviving branch was
        capped at exactly ω̄, so the heuristic clique is a maximum
        clique and ω = ω̄ (the sound form of Algorithm 2 line 36).
    state:
        The :class:`~repro.engine.problems.ProblemKind` accumulator
        for this search (None for the default max-clique kind).
    """

    clique_list: CliqueList
    omega: int
    levels: List[LevelStats] = field(default_factory=list)
    stopped_by_heuristic: bool = False
    state: Any = None

    @property
    def candidates_stored(self) -> int:
        return self.clique_list.total_candidates

    @property
    def candidates_pruned(self) -> int:
        return sum(s.pruned for s in self.levels)


@dataclass
class Lane:
    """One in-flight root of a fused group (a window being searched)."""

    index: int
    start: int
    end: int
    clique_list: CliqueList
    levels: List[LevelStats] = field(default_factory=list)
    done: bool = False
    omega: int = 0
    state: Any = None


class LevelDriver:
    """Owns the count/scan/output level loop for every search path.

    Parameters
    ----------
    graph:
        Input graph (CSR with sorted adjacency); its per-vertex binary
        search cost prices the count/output kernels.
    device:
        Device charged for all kernels; clique-list nodes allocate
        from its memory pool (may raise
        :class:`~repro.errors.DeviceOOMError`).
    chunk_pairs:
        Host-side pair-batch size (wall-time knob only).
    deadline:
        Checked once per level; raises
        :class:`~repro.errors.SolveTimeoutError` with the deadline's
        label when exceeded.
    """

    def __init__(
        self,
        graph: CSRGraph,
        device: Device,
        chunk_pairs: int = 1 << 22,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self.graph = graph
        self.device = device
        self.chunk_pairs = chunk_pairs
        self.deadline = deadline if deadline is not None else Deadline(None)

    # ------------------------------------------------------------------
    # isolated schedule: one lane, per-lane launches
    # ------------------------------------------------------------------
    def run(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        omega_bar: int,
        early_exit_heuristic: bool = False,
        kind: Optional[ProblemKind] = None,
    ) -> BFSOutcome:
        """Run the level loop from a prepared 2-clique list.

        ``kind`` selects the problem being solved (default:
        max-clique); it supplies the kernel bodies, the effective
        pruning bound, the termination rule, and the per-level
        harvest. On any exception (OOM, timeout, device loss) the
        partial clique list is freed so retries see the true free
        budget.
        """
        if kind is None:
            kind = MAX_CLIQUE
        clique_list = CliqueList(self.device)
        levels: List[LevelStats] = []
        state = kind.new_state()
        if src.size == 0:
            return BFSOutcome(
                clique_list=clique_list, omega=0, levels=levels, state=state
            )
        try:
            return self._isolated_loop(
                src, dst, omega_bar, clique_list, levels,
                early_exit_heuristic, kind, state,
            )
        except BaseException:
            clique_list.free_all()
            raise

    def _isolated_loop(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        omega_bar: int,
        clique_list: CliqueList,
        levels: List[LevelStats],
        early_exit_heuristic: bool,
        kind: ProblemKind,
        state: Any,
    ) -> BFSOutcome:
        graph, device = self.graph, self.device
        clique_list.append_root(src, dst)
        lookup_cost = graph.lookup_cost
        # the kind's view of the bound: identity for max-clique, 0 for
        # kinds that must visit every clique (0 disables the prune and
        # the early exit below)
        bar = kind.effective_bar(omega_bar)
        early_exit = early_exit_heuristic and kind.prunes

        while True:
            self.deadline.check(f"level {clique_list.depth}")
            node = clique_list.head
            k = node.level
            if kind.stop_level is not None and k >= kind.stop_level:
                levels.append(
                    LevelStats(level=k, candidates=node.size, generated=0, pruned=0)
                )
                kind.harvest_stop(clique_list, state)
                return BFSOutcome(
                    clique_list=clique_list, omega=k, levels=levels, state=state
                )
            vertex = node.vertex.a
            sublist = node.sublist.a
            n_threads = vertex.size
            levels.append(
                LevelStats(level=k, candidates=n_threads, generated=0, pruned=0)
            )

            # tail length of each thread within its sublist
            bounds = P.run_boundaries(device, sublist)
            ends = np.repeat(bounds[1:], np.diff(bounds))
            tail = ends - np.arange(n_threads, dtype=np.int64) - 1

            # CountCliques: per-thread cost = tail * binary-search + 1
            thread_cost = tail.astype(np.float64) * lookup_cost[vertex] + 1.0
            device.launch(thread_cost, name="count_cliques")
            counts = kind.count(graph, vertex, tail, self.chunk_pairs)

            # prune new sublists that cannot reach the bound
            generated = int(counts.sum())
            if bar > 0:
                prune_mask = (counts + k) < bar
                pruned = int(counts[prune_mask].sum())
                counts[prune_mask] = 0
            else:
                pruned = 0
            levels[-1].generated = generated
            levels[-1].pruned = pruned

            kind.on_level(graph, device, clique_list, counts, state)

            if (
                early_exit
                and bar >= 2
                and counts.size
                and counts.max() + k <= bar
            ):
                # Sound form of Algorithm 2 line 36: every surviving
                # branch has count + k == omega_bar exactly (smaller
                # ones were pruned), so no branch can beat the
                # heuristic clique -- omega equals omega_bar and the
                # heuristic clique is a maximum clique. Stop before
                # allocating the next node.
                return BFSOutcome(
                    clique_list=clique_list,
                    omega=bar,
                    levels=levels,
                    stopped_by_heuristic=True,
                    state=state,
                )

            offsets, total_new = P.exclusive_scan(device, counts)
            if total_new == 0:
                return BFSOutcome(
                    clique_list=clique_list, omega=k, levels=levels, state=state
                )

            # allocate the next node now (the real implementation's
            # cudaMalloc happens here and is where OOM strikes), then
            # run OutputNewCliques into it
            new_node = clique_list.append_level(
                np.empty(total_new, dtype=np.int32),
                np.empty(total_new, dtype=np.int32),
            )
            device.launch(thread_cost + 1.0, name="output_new_cliques")
            kind.output(
                graph, vertex, tail, counts, offsets,
                new_node.vertex.a, new_node.sublist.a, self.chunk_pairs,
            )

    # ------------------------------------------------------------------
    # fused schedule: a group of lanes, merged launches per level
    # ------------------------------------------------------------------
    def open_lane(
        self,
        index: int,
        start: int,
        end: int,
        src: np.ndarray,
        dst: np.ndarray,
        kind: Optional[ProblemKind] = None,
    ) -> Lane:
        """Open one fused-group lane (allocates its root node)."""
        if kind is None:
            kind = MAX_CLIQUE
        lane = Lane(
            index=index, start=start, end=end,
            clique_list=CliqueList(self.device), state=kind.new_state(),
        )
        if src.size == 0:
            lane.done = True
        else:
            lane.clique_list.append_root(src, dst)
        return lane

    def run_fused(
        self,
        lanes: List[Lane],
        bar: int,
        level_sink: Optional[Callable[[LevelStats], None]] = None,
        kind: Optional[ProblemKind] = None,
    ) -> None:
        """Advance all lanes' levels together with merged launches.

        ``bar`` is the group's shared pruning bound, fixed for the
        whole group (windows in flight cannot see each other's
        improvements -- the staleness the paper predicts for
        concurrent windows). ``level_sink`` receives every lane's
        :class:`~repro.core.result.LevelStats` in level-major order,
        preserving the interleaved timeline of the merged schedule.

        The caller owns the lanes' clique lists (frees them after
        harvesting results); this method only fills them.
        """
        if kind is None:
            kind = MAX_CLIQUE
        graph, device = self.graph, self.device
        lookup_cost = graph.lookup_cost
        bar = kind.effective_bar(bar)
        while True:
            if kind.stop_level is not None:
                for la in lanes:
                    if la.done:
                        continue
                    node = la.clique_list.head
                    if node.level >= kind.stop_level:
                        stats = LevelStats(
                            level=node.level, candidates=node.size,
                            generated=0, pruned=0,
                        )
                        la.levels.append(stats)
                        if level_sink is not None:
                            level_sink(stats)
                        kind.harvest_stop(la.clique_list, la.state)
                        la.done = True
                        la.omega = node.level
            active = [la for la in lanes if not la.done]
            if not active:
                return
            self.deadline.check(f"level {active[0].clique_list.depth}")

            # per-lane tails; run-boundary work merged into one launch
            tails = []
            total_threads = 0
            for la in active:
                sub = la.clique_list.head.sublist.a
                bounds = run_boundaries_host(sub)
                ends = np.repeat(bounds[1:], np.diff(bounds))
                tail = ends - np.arange(sub.size, dtype=np.int64) - 1
                tails.append(tail)
                total_threads += sub.size
            device.launch(1.0, n_threads=total_threads, name="run_boundaries")

            # merged CountCliques launch: one cost array for the group
            cost_arrays = [
                tails[i].astype(np.float64)
                * lookup_cost[active[i].clique_list.head.vertex.a]
                + 1.0
                for i in range(len(active))
            ]
            merged = np.concatenate(cost_arrays) if cost_arrays else np.zeros(0)
            device.launch(merged, name="count_cliques")

            # per-lane counts, pruning, merged scan accounting
            all_counts = []
            for la, tail in zip(active, tails):
                node = la.clique_list.head
                k = node.level
                counts = kind.count(graph, node.vertex.a, tail, self.chunk_pairs)
                generated = int(counts.sum())
                prune_mask = (counts + k) < bar
                pruned = int(counts[prune_mask].sum())
                counts[prune_mask] = 0
                stats = LevelStats(
                    level=k, candidates=node.size,
                    generated=generated, pruned=pruned,
                )
                la.levels.append(stats)
                if level_sink is not None:
                    level_sink(stats)
                kind.on_level(graph, device, la.clique_list, counts, la.state)
                all_counts.append(counts)
            device.launch(
                P.SCAN_OPS, n_threads=total_threads, name="exclusive_scan"
            )

            # merged OutputNewCliques launch, then per-lane output passes
            device.launch(merged + 1.0, name="output_new_cliques")
            for la, tail, counts in zip(active, tails, all_counts):
                node = la.clique_list.head
                offsets = np.zeros(counts.size, dtype=np.int64)
                if counts.size:
                    np.cumsum(counts[:-1], out=offsets[1:])
                total_new = int(counts.sum())
                if total_new == 0:
                    la.done = True
                    la.omega = node.level
                    continue
                new_node = la.clique_list.append_level(
                    np.empty(total_new, dtype=np.int32),
                    np.empty(total_new, dtype=np.int32),
                )
                kind.output(
                    graph, node.vertex.a, tail, counts, offsets,
                    new_node.vertex.a, new_node.sublist.a, self.chunk_pairs,
                )
