"""Result verification utility tests."""

import numpy as np
import pytest

from repro import find_maximum_cliques
from repro.core import MaxCliqueSolver, SolverConfig
from repro.core.verify import (
    VerificationError,
    is_clique,
    is_maximal_clique,
    verify_result,
)
from repro.graph import from_edge_list
from repro.graph import generators as gen


class TestIsClique:
    def test_positive(self, paper_graph):
        assert is_clique(paper_graph, [1, 2, 3, 4])
        assert is_clique(paper_graph, [0, 1])
        assert is_clique(paper_graph, [3])
        assert is_clique(paper_graph, [])

    def test_negative(self, paper_graph):
        assert not is_clique(paper_graph, [0, 3])  # missing edge
        assert not is_clique(paper_graph, [1, 1])  # duplicate
        assert not is_clique(paper_graph, [1, 99])  # out of range


class TestIsMaximal:
    def test_maximum_is_maximal(self, paper_graph):
        assert is_maximal_clique(paper_graph, [1, 2, 3, 4])

    def test_extendable_not_maximal(self, paper_graph):
        assert not is_maximal_clique(paper_graph, [1, 2, 3])  # + 4
        assert not is_maximal_clique(paper_graph, [0, 1])  # + 2

    def test_non_clique_not_maximal(self, paper_graph):
        assert not is_maximal_clique(paper_graph, [0, 3])


class TestVerifyResult:
    def test_accepts_correct_results(self):
        for seed in range(10):
            g = gen.erdos_renyi(25, 0.35, seed=seed)
            r = find_maximum_cliques(g)
            verify_result(g, r, cross_check=True)

    def test_accepts_windowed_results(self):
        g = gen.erdos_renyi(30, 0.35, seed=42)
        r = find_maximum_cliques(g, window_size=8)
        verify_result(g, r, cross_check=True)

    def test_rejects_wrong_omega(self, triangle):
        r = find_maximum_cliques(triangle)
        r.clique_number = 2
        with pytest.raises(VerificationError):
            verify_result(triangle, r)

    def test_rejects_fake_clique(self, paper_graph):
        r = find_maximum_cliques(paper_graph)
        r.cliques = np.array([[0, 1, 2, 3]], dtype=np.int32)  # not a clique
        with pytest.raises(VerificationError):
            verify_result(paper_graph, r)

    def test_rejects_non_maximal(self):
        g = gen.complete_graph(4)
        r = find_maximum_cliques(g)
        r.clique_number = 3
        r.cliques = np.array([[0, 1, 2]], dtype=np.int32)  # extendable
        with pytest.raises(VerificationError):
            verify_result(g, r)

    def test_rejects_duplicates(self, triangle):
        r = find_maximum_cliques(triangle)
        r.cliques = np.array([[0, 1, 2], [2, 1, 0]], dtype=np.int32)
        with pytest.raises(VerificationError):
            verify_result(triangle, r)

    def test_rejects_unsound_heuristic_bound(self, triangle):
        r = find_maximum_cliques(triangle)
        r.heuristic.lower_bound = 99
        with pytest.raises(VerificationError):
            verify_result(triangle, r)

    def test_rejects_wrong_enumeration_count(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        r = find_maximum_cliques(g)
        r.num_maximum_cliques = 1
        r.cliques = r.cliques[:1]
        with pytest.raises(VerificationError):
            verify_result(g, r, cross_check=True)

    def test_cross_check_size_guard(self):
        g = gen.erdos_renyi(80, 0.1, seed=1)
        r = find_maximum_cliques(g)
        with pytest.raises(VerificationError):
            verify_result(g, r, cross_check=True, cross_check_limit=60)

    def test_empty_graph(self):
        g = from_edge_list([])
        r = find_maximum_cliques(g)
        verify_result(g, r)


class TestOtherKinds:
    """The counting and enumeration kinds' answers, checked and tampered."""

    #: maximal cliques {0,1,2}, {2,3,4}, {5,6} and the isolated {7}
    GRAPH = from_edge_list(
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (5, 6)], num_vertices=8
    )

    def solve(self, **kwargs):
        return MaxCliqueSolver(self.GRAPH, SolverConfig(**kwargs)).solve()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_accepts_counts(self, k):
        result = self.solve(problem="k-clique-count", k=k)
        verify_result(self.GRAPH, result, cross_check=True)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rejects_wrong_count(self, k):
        result = self.solve(problem="k-clique-count", k=k)
        result.count += 1
        with pytest.raises(VerificationError, match="cliques"):
            verify_result(self.GRAPH, result, cross_check=True)
        result.count = -1
        with pytest.raises(VerificationError, match="negative"):
            verify_result(self.GRAPH, result)

    def test_closed_forms_need_no_oracle(self):
        result = self.solve(problem="k-clique-count", k=2)
        result.count = 6
        with pytest.raises(VerificationError, match="the graph has 7"):
            verify_result(self.GRAPH, result)

    @pytest.mark.parametrize("cap", [2, 20])
    def test_accepts_enumerations(self, cap):
        result = self.solve(problem="maximal-enum", max_cliques_report=cap)
        assert result.enumerated_all == (cap == 20)
        verify_result(self.GRAPH, result, cross_check=True)

    def test_rejects_dropped_row(self):
        result = self.solve(problem="maximal-enum")
        result.cliques = result.cliques[1:]
        with pytest.raises(VerificationError, match="3 of 4 rows"):
            verify_result(self.GRAPH, result)

    def test_rejects_non_maximal_row(self):
        result = self.solve(problem="maximal-enum")
        assert result.cliques == [(7,), (5, 6), (0, 1, 2), (2, 3, 4)]
        result.cliques = [(7,), (1, 2), (5, 6), (2, 3, 4)]
        with pytest.raises(VerificationError, match="not a sorted maximal"):
            verify_result(self.GRAPH, result)

    def test_rejects_repeated_or_unordered_rows(self):
        result = self.solve(problem="maximal-enum")
        for rows in (result.cliques[::-1], [(7,), (5, 6), (5, 6), (2, 3, 4)]):
            result.cliques = rows
            with pytest.raises(VerificationError, match="canonical order"):
                verify_result(self.GRAPH, result)

    def test_rejects_wrong_count_and_size(self):
        capped = self.solve(problem="maximal-enum", max_cliques_report=2)
        capped.num_maximal_cliques += 1
        verify_result(self.GRAPH, capped)  # only the oracle can tell
        with pytest.raises(VerificationError, match="Bron-Kerbosch"):
            verify_result(self.GRAPH, capped, cross_check=True)
        result = self.solve(problem="maximal-enum")
        result.max_clique_size = 2
        with pytest.raises(VerificationError, match="max_clique_size 2"):
            verify_result(self.GRAPH, result)

    def test_rejects_what_it_cannot_verify(self):
        with pytest.raises(VerificationError, match="no verifier"):
            verify_result(self.GRAPH, object())
