"""Stateful property testing: ω under graph edits.

A hypothesis rule-based machine grows a graph edge by edge and checks
two monotonicity invariants after every batch of edits:

* adding edges never decreases the clique number;
* the solver stays consistent with the incremental Bron-Kerbosch
  oracle at every step.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro import find_maximum_cliques
from repro.baselines import maximum_cliques_via_bk
from repro.graph import from_edge_list

N = 12  # vertex universe


class GrowingGraphMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.edges = set()
        self.last_omega = 0
        self.checks = 0

    @rule(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
    def add_edge(self, u, v):
        if u != v:
            self.edges.add((min(u, v), max(u, v)))

    @rule(
        members=st.lists(
            st.integers(0, N - 1), min_size=3, max_size=5, unique=True
        )
    )
    def add_clique(self, members):
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                self.edges.add((min(a, b), max(a, b)))

    @invariant()
    def omega_is_exact_and_monotone(self):
        g = from_edge_list(sorted(self.edges), num_vertices=N)
        result = find_maximum_cliques(g)
        ref_omega, ref_cliques = maximum_cliques_via_bk(g)
        assert result.clique_number == ref_omega
        assert result.num_maximum_cliques == len(ref_cliques)
        # edges only ever get added: omega never decreases
        assert result.clique_number >= self.last_omega
        self.last_omega = result.clique_number


GrowingGraphMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)
TestGrowingGraph = GrowingGraphMachine.TestCase
