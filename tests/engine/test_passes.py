"""The level passes against their earlier bodies, kept here as the oracle.

The passes build only the pairs they use: the count pass takes each
pair's first vertex with one ``np.repeat`` and sums its hits per
thread, and the output pass expands only the live threads' tails.
Earlier bodies gathered ``vertex[idx1]`` for every pair, counted with
``bincount`` and filtered the output pairs by liveness after expanding
them all. Both forms must issue the same queries and write
byte-identical nodes. The run boundaries each thread's tail is taken
from are checked directly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.passes import (
    chunk_slices,
    count_pass,
    output_pass,
    run_boundaries,
)
from repro.graph import generators as gen


def expand_pairs(tail_slice, start):
    total = int(tail_slice.sum())
    reps = tail_slice.astype(np.int64)
    idx1 = start + np.repeat(np.arange(tail_slice.size, dtype=np.int64), reps)
    ends = np.cumsum(reps)
    starts = ends - reps
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, reps)
    return idx1, idx1 + 1 + within


def oracle_count_pass(graph, vertex, tail, chunk_pairs):
    counts = np.zeros(tail.size, dtype=np.int64)
    for start, stop in chunk_slices(tail, chunk_pairs):
        idx1, idx2 = expand_pairs(tail[start:stop], start)
        found = graph.batch_has_edge(vertex[idx1], vertex[idx2])
        if found.any():
            counts[start:stop] += np.bincount(
                idx1[found] - start, minlength=stop - start
            )
    return counts


def oracle_output_pass(
    graph, vertex, tail, counts, offsets, new_vertex, new_sublist, chunk_pairs
):
    live = counts > 0
    for start, stop in chunk_slices(tail, chunk_pairs):
        idx1, idx2 = expand_pairs(tail[start:stop], start)
        keep = live[idx1]
        idx1, idx2 = idx1[keep], idx2[keep]
        if idx1.size == 0:
            continue
        found = graph.batch_has_edge(vertex[idx1], vertex[idx2])
        f1 = idx1[found]
        f2 = idx2[found]
        if f1.size:
            run_start = np.flatnonzero(
                np.concatenate(([True], f1[1:] != f1[:-1]))
            )
            run_len = np.diff(np.concatenate([run_start, [f1.size]]))
            rank = np.arange(f1.size, dtype=np.int64) - np.repeat(
                run_start, run_len
            )
            pos = offsets[f1] + rank
            new_vertex[pos] = vertex[f2]
            new_sublist[pos] = f1.astype(np.int32)


class QueryLog:
    """A graph that records every ``batch_has_edge`` call it answers."""

    def __init__(self, graph):
        self.graph = graph
        self.pairs = []

    def batch_has_edge(self, *args, **kwargs):
        # perfbench counts a call's queries as len(args[1])
        assert len(args) == 2 and not kwargs
        u, v = args
        assert u.shape == v.shape
        self.pairs.append(np.stack([u, v]).astype(np.int64))
        return self.graph.batch_has_edge(u, v)

    def queries(self):
        if not self.pairs:
            return np.zeros((2, 0), dtype=np.int64)
        return np.concatenate(self.pairs, axis=1)


@st.composite
def levels(draw):
    """A graph, one level's vertex/tail arrays, a prune and a chunk size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    density = draw(st.floats(0.0, 0.9))
    graph = gen.erdos_renyi(n, density, seed=int(rng.integers(1 << 30)))
    threads = draw(st.integers(0, 120))
    vertex = rng.integers(0, n, threads).astype(np.int32)
    # thread i pairs with at most the threads after it; some tails are 0
    room = threads - 1 - np.arange(threads)
    tail = (rng.random(threads) * (room + 1)).astype(np.int64)
    tail[rng.random(threads) < 0.3] = 0
    prune = draw(st.sampled_from(["none", "some", "all"]))
    chunk_pairs = draw(st.sampled_from([1, 2, 7, 64, 1 << 22]))
    return graph, vertex, tail, prune, rng, chunk_pairs


@given(levels())
@settings(max_examples=150, deadline=None)
def test_passes_match_their_earlier_bodies(level):
    graph, vertex, tail, prune, rng, chunk_pairs = level
    old_log, new_log = QueryLog(graph), QueryLog(graph)
    want = oracle_count_pass(old_log, vertex, tail, chunk_pairs)
    counts = count_pass(new_log, vertex, tail, chunk_pairs)
    assert counts.dtype == want.dtype and counts.tobytes() == want.tobytes()
    # the same queries, in the same order
    assert np.array_equal(new_log.queries(), old_log.queries())

    # prune as the level loop does: zero the count of a dropped thread
    if prune == "all":
        counts[:] = 0
    elif prune == "some":
        counts[rng.random(counts.size) < 0.5] = 0
    offsets = np.cumsum(counts) - counts
    total = int(counts.sum())

    nodes = []
    for body, log in (
        (oracle_output_pass, QueryLog(graph)),
        (output_pass, QueryLog(graph)),
    ):
        new_vertex = np.full(total, -1, dtype=np.int32)
        new_sublist = np.full(total, -1, dtype=np.int32)
        body(
            log, vertex, tail, counts, offsets, new_vertex, new_sublist,
            chunk_pairs,
        )
        nodes.append(
            (new_vertex.tobytes(), new_sublist.tobytes(), log.queries())
        )
    (old_v, old_s, old_q), (new_v, new_s, new_q) = nodes
    assert new_v == old_v and new_s == old_s
    assert np.array_equal(new_q, old_q)
    # every slot of the node is written: pruned threads own none
    assert (np.frombuffer(new_v, dtype=np.int32) >= 0).all()


def test_output_pass_skips_pruned_threads():
    graph = gen.complete_graph(6)
    vertex = np.arange(6, dtype=np.int32)
    tail = np.array([5, 4, 3, 2, 1, 0], dtype=np.int64)
    counts = np.array([0, 4, 0, 2, 0, 0], dtype=np.int64)
    offsets = np.array([0, 0, 4, 4, 6, 6], dtype=np.int64)
    log = QueryLog(graph)
    new_vertex = np.full(6, -1, dtype=np.int32)
    new_sublist = np.full(6, -1, dtype=np.int32)
    output_pass(log, vertex, tail, counts, offsets, new_vertex, new_sublist, 1)
    # only threads 1 and 3 expand: 4 + 2 queries
    assert log.queries().shape == (2, 6)
    assert new_vertex.tolist() == [2, 3, 4, 5, 4, 5]
    assert new_sublist.tolist() == [1, 1, 1, 1, 3, 3]


class TestRunBoundaries:
    def test_basic_runs(self):
        out = run_boundaries(np.array([5, 5, 7, 7, 7, 9]))
        assert out.tolist() == [0, 2, 5, 6]

    def test_empty(self):
        assert run_boundaries(np.zeros(0, dtype=np.int32)).tolist() == [0]

    def test_all_equal(self):
        assert run_boundaries(np.full(4, 3)).tolist() == [0, 4]

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_boundaries_reconstruct_runs(self, values):
        arr = np.asarray(values)
        bounds = run_boundaries(arr)
        # each segment is constant and differs from its neighbour
        for a, b in zip(bounds[:-1], bounds[1:]):
            seg = arr[a:b]
            assert (seg == seg[0]).all()
            if b < arr.size:
                assert arr[b] != seg[0]
