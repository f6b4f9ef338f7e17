"""Structural invariances of the clique number under graph operations.

ω is a graph invariant; the solver must respect the algebra:
relabelling cannot change it, taking unions cannot decrease it,
induced subgraphs cannot increase it, and adding a dominating apex
vertex increases it by exactly one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import find_maximum_cliques
from repro.graph import from_edge_array, induced_subgraph, relabel_random
from repro.graph import generators as gen
from repro.graph.build import graph_union

SETTINGS = dict(max_examples=30, deadline=None)


@st.composite
def graphs(draw, max_n=22):
    n = draw(st.integers(3, max_n))
    p = draw(st.floats(0.1, 0.6))
    seed = draw(st.integers(0, 2**31 - 1))
    return gen.erdos_renyi(n, p, seed=seed)


class TestRelabelInvariance:
    @given(graphs(), st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_omega_invariant_under_relabel(self, g, seed):
        a = find_maximum_cliques(g)
        b = find_maximum_cliques(relabel_random(g, seed=seed))
        assert a.clique_number == b.clique_number
        assert a.num_maximum_cliques == b.num_maximum_cliques


class TestUnionMonotonicity:
    @given(graphs(max_n=16), graphs(max_n=16))
    @settings(**SETTINGS)
    def test_union_never_decreases_omega(self, g1, g2):
        u = graph_union(g1, g2)
        wu = find_maximum_cliques(u).clique_number
        w1 = find_maximum_cliques(g1).clique_number
        w2 = find_maximum_cliques(g2).clique_number
        assert wu >= max(w1, w2)


class TestSubgraphMonotonicity:
    @given(graphs(), st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_induced_subgraph_never_increases_omega(self, g, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, g.num_vertices + 1))
        verts = rng.choice(g.num_vertices, size=k, replace=False)
        sub, _ = induced_subgraph(g, verts)
        w_sub = find_maximum_cliques(sub).clique_number
        w = find_maximum_cliques(g).clique_number
        assert w_sub <= w


class TestApexVertex:
    @given(graphs(max_n=16))
    @settings(**SETTINGS)
    def test_dominating_apex_adds_exactly_one(self, g):
        n = g.num_vertices
        src, dst = g.to_edge_list()
        apex_src = np.full(n, n, dtype=np.int64)
        apex_dst = np.arange(n, dtype=np.int64)
        g2 = from_edge_array(
            np.concatenate([src.astype(np.int64), apex_src]),
            np.concatenate([dst.astype(np.int64), apex_dst]),
            num_vertices=n + 1,
        )
        w = find_maximum_cliques(g).clique_number
        r2 = find_maximum_cliques(g2)
        assert r2.clique_number == w + 1
        # every maximum clique of g2 contains the apex
        assert all(n in row.tolist() for row in r2.cliques)
