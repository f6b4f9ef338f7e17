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

The loop runs over a list of *lanes*, one per root (the whole 2-clique
list, or one window of it); each lane is a :class:`BFSOutcome`. Every
lane starts at level 2 and advances one level per iteration, so the
live lanes always share a level, and each level's run-boundary,
CountCliques and scan work is charged as one launch across them. Two
launch schedules differ only in how ``OutputNewCliques`` is charged:

* **isolated** (``fused=False``) -- each lane's launch is charged
  after its next node is allocated, and not at all on a level that
  produced nothing. With one lane this is the schedule of the full
  enumeration and of each window of the sequential sweep; only it
  supports the early exit.
* **fused** (``fused=True``) -- ``fanout`` windows advance together
  and their output work is *one* merged launch, charged before the
  lanes allocate (shared launch overhead, higher occupancy) -- the
  concurrent-windows extension of paper Section V-C3.

A single-lane fused group is not the isolated schedule: the merged
``OutputNewCliques`` launch is charged before the lanes learn that
none of them produced a clique, so the fused schedule pays one more
launch on its last level (with one lane and the same 2-clique list:
24 vs 23 launches on soc-comm-10x50, 12 vs 11 on road-grid-60).
``fanout=1`` matches the sequential sweep only because
:func:`~repro.engine.sweep.window_sweep` runs it isolated.

Host-side vectorisation note: the per-thread inner loops are
materialised as flat pair arrays in chunks of ``chunk_pairs`` to
bound host memory; chunking affects wall time only. Model time
charges each thread ``tail_length * binary_search_cost + 1`` ops for
the count pass and the same again for the output pass, exactly the
two passes the kernels make.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..gpusim.device import Device
from ..gpusim.primitives import SCAN_OPS
from ..graph.csr import CSRGraph
from ..core.clique_list import CliqueList
from ..core.deadline import Deadline
from ..core.result import LevelStats
from .passes import run_boundaries
from .problems import MAX_CLIQUE, ProblemKind

__all__ = ["BFSOutcome", "LevelDriver"]


@dataclass
class BFSOutcome:
    """One lane: the breadth-first search of one (windowed) root.

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
    omega: int = 0
    levels: List[LevelStats] = field(default_factory=list)
    stopped_by_heuristic: bool = False
    state: Any = None

    @property
    def candidates_stored(self) -> int:
        return self.clique_list.total_candidates

    @property
    def candidates_pruned(self) -> int:
        return sum(s.pruned for s in self.levels)


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

    def run(
        self,
        roots: Sequence[Tuple[np.ndarray, np.ndarray]],
        omega_bar: int,
        fused: bool = False,
        early_exit_heuristic: bool = False,
        kind: Optional[ProblemKind] = None,
    ) -> List[BFSOutcome]:
        """Run the level loop from prepared 2-clique lists, one lane each.

        ``roots`` holds each lane's ``(src, dst)`` arrays; an empty
        root yields an empty lane. ``omega_bar`` is the lanes' shared
        pruning bound, fixed for the whole run (lanes in flight cannot
        see each other's improvements -- the staleness the paper
        predicts for concurrent windows). ``kind`` selects the problem
        being solved (default: max-clique); it supplies the kernel
        bodies, the effective pruning bound, the termination rule, and
        the per-level harvest. The early exit needs a single lane.

        The caller owns the returned lanes' clique lists. On any
        exception (OOM, timeout, device loss) they are freed first, so
        retries see the true free budget.
        """
        if kind is None:
            kind = MAX_CLIQUE
        if early_exit_heuristic and len(roots) != 1:
            raise ValueError("the early exit needs a single lane")
        lanes = [
            BFSOutcome(CliqueList(self.device), state=kind.new_state())
            for _ in roots
        ]
        try:
            for lane, (src, dst) in zip(lanes, roots):
                if src.size:
                    lane.clique_list.append_root(src, dst)
            # the kind's view of the bound: identity for max-clique, 0
            # for kinds that must visit every clique (0 disables the
            # prune and the early exit)
            self._loop(
                lanes, kind.effective_bar(omega_bar), fused,
                early_exit_heuristic and kind.prunes, kind,
            )
        except BaseException:
            for lane in lanes:
                lane.clique_list.free_all()
            raise
        return lanes

    def _loop(
        self,
        lanes: List[BFSOutcome],
        bar: int,
        fused: bool,
        early_exit: bool,
        kind: ProblemKind,
    ) -> None:
        graph, device = self.graph, self.device
        lookup_cost = graph.lookup_cost
        active = [lane for lane in lanes if lane.clique_list.nodes]
        while active:
            k = active[0].clique_list.depth
            self.deadline.check(f"level {k}")
            heads = [lane.clique_list.head for lane in active]
            if kind.stop_level is not None and k >= kind.stop_level:
                for lane, head in zip(active, heads):
                    lane.levels.append(
                        LevelStats(level=k, candidates=head.size, generated=0, pruned=0)
                    )
                    kind.harvest_stop(lane.clique_list, lane.state)
                    lane.omega = k
                return

            # tail length of each thread within its sublist
            tails = []
            for head in heads:
                bounds = run_boundaries(head.sublist.a)
                ends = np.repeat(bounds[1:], np.diff(bounds))
                tails.append(ends - np.arange(head.size, dtype=np.int64) - 1)
            n_threads = sum(head.size for head in heads)
            device.launch(1.0, n_threads=n_threads, name="run_boundaries")

            # CountCliques: per-thread cost = tail * binary-search + 1
            costs = [
                tail.astype(np.float64) * lookup_cost[head.vertex.a] + 1.0
                for head, tail in zip(heads, tails)
            ]
            cost = costs[0] if len(costs) == 1 else np.concatenate(costs)
            device.launch(cost, name="count_cliques")
            all_counts = []
            for lane, head, tail in zip(active, heads, tails):
                counts = kind.count(graph, head.vertex.a, tail, self.chunk_pairs)
                generated = int(counts.sum())
                pruned = 0
                if bar > 0:
                    # prune new sublists that cannot reach the bound
                    prune_mask = (counts + k) < bar
                    pruned = int(counts[prune_mask].sum())
                    counts[prune_mask] = 0
                lane.levels.append(
                    LevelStats(
                        level=k, candidates=head.size,
                        generated=generated, pruned=pruned,
                    )
                )
                kind.on_level(graph, device, lane.clique_list, counts, lane.state)
                all_counts.append(counts)

            if early_exit and bar >= 2 and all_counts[0].max() + k <= bar:
                # Sound form of Algorithm 2 line 36: every surviving
                # branch has count + k == omega_bar exactly (smaller
                # ones were pruned), so no branch can beat the
                # heuristic clique -- omega equals omega_bar and the
                # heuristic clique is a maximum clique. Stop before
                # allocating the next node.
                active[0].omega = bar
                active[0].stopped_by_heuristic = True
                return

            device.launch(SCAN_OPS, n_threads=n_threads, name="exclusive_scan")
            if fused:
                device.launch(cost + 1.0, name="output_new_cliques")
            still_active = []
            for lane, head, tail, counts, lane_cost in zip(
                active, heads, tails, all_counts, costs
            ):
                offsets = np.zeros(counts.size, dtype=np.int64)
                np.cumsum(counts[:-1], out=offsets[1:])
                total_new = int(offsets[-1]) + int(counts[-1])
                if total_new == 0:
                    lane.omega = k
                    continue
                # allocate the next node now (the real implementation's
                # cudaMalloc happens here and is where OOM strikes),
                # then run OutputNewCliques into it
                new_node = lane.clique_list.append_level(
                    np.empty(total_new, dtype=np.int32),
                    np.empty(total_new, dtype=np.int32),
                )
                if not fused:
                    device.launch(lane_cost + 1.0, name="output_new_cliques")
                kind.output(
                    graph, head.vertex.a, tail, counts, offsets,
                    new_node.vertex.a, new_node.sublist.a, self.chunk_pairs,
                )
                still_active.append(lane)
            active = still_active
