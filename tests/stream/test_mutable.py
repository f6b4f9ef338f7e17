"""Unit tests for the resident mutable graph (one CSR per epoch)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import from_edge_list
from repro.graph.build import from_edge_array
from repro.stream.mutable import MutableGraph, MutationDelta

TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def fresh(edges, n=None):
    return from_edge_list(edges, num_vertices=n)


def materialized_fingerprint(mg):
    return mg.materialize().fingerprint()


class TestApply:
    def test_insert_bumps_epoch_and_edge_count(self):
        mg = MutableGraph(fresh(TRIANGLE))
        delta = mg.apply(inserts=[(1, 3)])
        assert mg.epoch == 1
        assert delta.epoch == 1
        assert delta.inserted == ((1, 3),)
        assert mg.num_edges == 4
        assert mg.has_edge(1, 3) and mg.has_edge(3, 1)

    def test_canonicalizes_and_dedups_within_batch(self):
        mg = MutableGraph(fresh(TRIANGLE))
        delta = mg.apply(inserts=[(3, 1), (1, 3), [1, 3]])
        assert delta.inserted == ((1, 3),)
        assert mg.num_edges == 4

    def test_inserting_present_edge_is_noop_but_spends_epoch(self):
        mg = MutableGraph(fresh(TRIANGLE))
        delta = mg.apply(inserts=[(0, 1)])
        assert delta.inserted == ()
        assert mg.epoch == 1
        assert mg.num_edges == 3

    def test_deleting_absent_edge_is_noop(self):
        mg = MutableGraph(fresh(TRIANGLE))
        delta = mg.apply(deletes=[(0, 3)])
        assert delta.deleted == ()
        assert mg.num_edges == 3

    def test_delete_then_reinsert_round_trips(self):
        mg = MutableGraph(fresh(TRIANGLE))
        before = materialized_fingerprint(mg)
        mg.apply(deletes=[(0, 1)])
        assert not mg.has_edge(0, 1)
        mg.apply(inserts=[(0, 1)])
        assert materialized_fingerprint(mg) == before
        assert mg.epoch == 2

    def test_insert_and_delete_same_edge_rejected_atomically(self):
        mg = MutableGraph(fresh(TRIANGLE))
        with pytest.raises(ValueError, match="both insert and delete"):
            mg.apply(inserts=[(0, 3)], deletes=[(3, 0)])
        assert mg.epoch == 0
        assert not mg.has_edge(0, 3)

    @pytest.mark.parametrize(
        "bad", [[(0, 0)], [(-1, 2)], [(0,)], [("a", "b")], [(True, 1)]]
    )
    def test_bad_pairs_rejected(self, bad):
        mg = MutableGraph(fresh(TRIANGLE))
        with pytest.raises(ValueError):
            mg.apply(inserts=bad)
        assert mg.epoch == 0

    def test_universe_grows_monotonically(self):
        mg = MutableGraph(fresh(TRIANGLE))
        assert mg.num_vertices == 3
        mg.apply(inserts=[(2, 9)])
        assert mg.num_vertices == 10
        mg.apply(deletes=[(2, 9)])
        # the slot survives the deletion: epochs stay comparable
        assert mg.num_vertices == 10
        assert mg.materialize().num_vertices == 10


class TestMaterialize:
    def test_matches_fresh_build_at_every_epoch(self):
        mg = MutableGraph(fresh(TRIANGLE))
        script = [
            (((1, 3), (2, 3)), ()),
            ((), ((0, 1),)),
            (((0, 4), (3, 4)), ((2, 3),)),
        ]
        edges = set(TRIANGLE)
        for ins, dels in script:
            mg.apply(ins, dels)
            edges |= set(ins)
            edges -= set(dels)
            src, dst = np.asarray(sorted(edges)).T
            want = from_edge_array(src, dst, num_vertices=mg.num_vertices)
            assert mg.materialize().fingerprint() == want.fingerprint()

    def test_materialization_is_cached_until_a_real_change(self):
        mg = MutableGraph(fresh(TRIANGLE))
        first = mg.materialize()
        assert mg.materialize() is first
        mg.apply(inserts=[(0, 1)])  # no-op batch: cache survives
        assert mg.materialize() is first
        mg.apply(inserts=[(1, 3)])
        assert mg.materialize() is not first


class TestRevert:
    def test_revert_restores_graph_epoch_and_universe(self):
        mg = MutableGraph(fresh(TRIANGLE))
        before = materialized_fingerprint(mg)
        delta = mg.apply(inserts=[(0, 7)], deletes=[(1, 2)])
        mg.revert(delta)
        assert mg.epoch == 0
        assert mg.num_vertices == 3
        assert materialized_fingerprint(mg) == before

    def test_only_newest_epoch_reverts(self):
        mg = MutableGraph(fresh(TRIANGLE))
        old = mg.apply(inserts=[(1, 3)])
        mg.apply(inserts=[(2, 3)])
        with pytest.raises(ValueError, match="newest epoch"):
            mg.revert(old)

    def test_revert_of_noop_delta(self):
        mg = MutableGraph(fresh(TRIANGLE))
        delta = mg.apply(inserts=[(0, 1)])  # already present
        mg.revert(delta)
        assert mg.epoch == 0
        assert mg.num_edges == 3

    def test_revert_past_a_compaction_keeps_every_edge(self):
        # the splice leaves a 6-vertex graph; the revert takes the
        # universe back to 3, where (0, 5) and (1, 2) share key 5
        mg = MutableGraph(fresh(TRIANGLE))
        before = materialized_fingerprint(mg)
        delta = mg.apply(inserts=[(0, 5)])
        assert mg.materialize().num_vertices == 6
        mg.revert(delta)
        graph = mg.materialize()
        assert graph.num_edges == 3 and graph.has_edge(1, 2)
        assert graph.fingerprint() == before


def assert_matches_oracle(graph, edges, num_vertices):
    """``graph`` is byte for byte ``from_edge_array`` over ``edges``."""
    pairs = np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2)
    want = from_edge_array(pairs[:, 0], pairs[:, 1], num_vertices=num_vertices)
    for name in ("row_offsets", "col_indices", "edge_keys"):
        got, ref = getattr(graph, name), getattr(want, name)
        assert got.dtype == ref.dtype, name
        assert got.tobytes() == ref.tobytes(), name
    assert graph.fingerprint() == want.fingerprint()


@st.composite
def edit_scripts(draw):
    """A base graph and steps of applies and reverts.

    Ids reach past the base's universe, batches may be no-ops, a step
    applies one to three batches before the next materialize, and a
    step may revert the newest deltas.
    """
    n = draw(st.integers(0, 7))
    top = n + 3  # ids up to here grow the universe
    pair = st.tuples(st.integers(0, top), st.integers(0, top)).filter(
        lambda e: e[0] != e[1]
    )
    base = set()
    if n > 1:
        inside = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        base = draw(st.sets(inside.filter(lambda e: e[0] != e[1]), max_size=12))
    batch = st.tuples(st.lists(pair, max_size=4), st.lists(pair, max_size=4))
    step = st.tuples(st.lists(batch, min_size=1, max_size=3), st.integers(0, 2))
    steps = draw(st.lists(step, min_size=1, max_size=6))
    return n, base, steps


@given(script=edit_scripts())
@settings(max_examples=200, deadline=None)
def test_every_epoch_matches_an_independent_rebuild(script):
    n, base, steps = script
    edges = {tuple(sorted(e)) for e in base}
    mg = MutableGraph(fresh(sorted(edges), n))
    assert_matches_oracle(mg.materialize(), edges, n)
    undo = []  # (delta, edges before it, universe before it)
    for batches, reverts in steps:
        for ins, dels in batches:
            ins = {tuple(sorted(e)) for e in ins}
            dels = {tuple(sorted(e)) for e in dels} - ins
            undo.append((mg.apply(ins, dels), set(edges), n))
            edges = (edges - dels) | ins
            n = max([n] + [v + 1 for _, v in ins])
        for _ in range(min(reverts, len(undo))):
            delta, edges, n = undo.pop()
            mg.revert(delta)
        assert mg.num_vertices == n and mg.num_edges == len(edges)
        assert_matches_oracle(mg.materialize(), edges, n)


def test_delta_size_property():
    delta = MutationDelta(epoch=1, inserted=((0, 1),), deleted=((1, 2), (2, 3)))
    assert delta.size == 3
