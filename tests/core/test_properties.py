"""Property-based tests of the solver's core invariants (hypothesis).

These drive random graphs through the full pipeline and check the
paper-level invariants: exactness of ω, completeness of enumeration,
heuristic soundness, windowed/full agreement, and monotone pruning.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Device, DeviceSpec, find_maximum_cliques
from repro.baselines import brute_force_maximum_cliques, maximum_cliques_via_bk
from repro.graph import core_numbers, from_edge_list
from repro.graph import generators as gen

from ..conftest import assert_is_clique

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_n=24):
    n = draw(st.integers(2, max_n))
    density = draw(st.floats(0.05, 0.75))
    seed = draw(st.integers(0, 2**31 - 1))
    return gen.erdos_renyi(n, density, seed=seed)


@st.composite
def edge_lists(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=40,
        )
    )
    return from_edge_list(edges, num_vertices=n)


class TestExactness:
    @given(random_graphs())
    @settings(**SETTINGS)
    def test_enumeration_matches_bron_kerbosch(self, g):
        omega, want = maximum_cliques_via_bk(g)
        r = find_maximum_cliques(g)
        assert r.clique_number == omega
        if g.num_edges:
            assert r.num_maximum_cliques == len(want)
            got = {tuple(sorted(row.tolist())) for row in r.cliques}
            assert got == {tuple(c) for c in want}

    @given(edge_lists())
    @settings(**SETTINGS)
    def test_arbitrary_edge_lists_match_brute_force(self, g):
        omega, want = brute_force_maximum_cliques(g)
        r = find_maximum_cliques(g)
        assert r.clique_number == omega
        assert r.num_maximum_cliques == len(want)

    @given(random_graphs(max_n=20), st.sampled_from([3, 7, 16]))
    @settings(**SETTINGS)
    def test_windowed_agrees_with_full(self, g, window):
        full = find_maximum_cliques(g)
        win = find_maximum_cliques(g, window_size=window)
        assert win.clique_number == full.clique_number
        if win.clique_number >= 2:
            assert_is_clique(g, win.cliques[0])


class TestHeuristicSoundness:
    @given(
        random_graphs(),
        st.sampled_from(
            ["single-degree", "single-core", "multi-degree", "multi-core"]
        ),
    )
    @settings(**SETTINGS)
    def test_bound_is_sound_and_clique_real(self, g, heuristic):
        r = find_maximum_cliques(g, heuristic=heuristic)
        lb = r.heuristic.lower_bound
        assert lb <= r.clique_number
        if r.heuristic.clique.size:
            assert_is_clique(g, r.heuristic.clique)

    @given(random_graphs())
    @settings(**SETTINGS)
    def test_core_bound_sandwich(self, g):
        # omega <= degeneracy + 1 always; heuristic <= omega
        r = find_maximum_cliques(g)
        if g.num_edges:
            degen = int(core_numbers(g).max())
            assert r.heuristic.lower_bound <= r.clique_number <= degen + 1


class TestPruningInvariants:
    @given(random_graphs())
    @settings(**SETTINGS)
    def test_better_bound_never_changes_answer(self, g):
        if g.num_edges == 0:
            return
        weak = find_maximum_cliques(g, heuristic="none")
        strong = find_maximum_cliques(g, heuristic="multi-degree")
        assert weak.clique_number == strong.clique_number
        assert weak.num_maximum_cliques == strong.num_maximum_cliques
        assert strong.candidates_stored <= weak.candidates_stored

    @given(random_graphs())
    @settings(**SETTINGS)
    def test_orderings_are_result_invariant(self, g):
        if g.num_edges == 0:
            return
        base = find_maximum_cliques(g)
        for kw in (
            dict(sublist_order="index"),
            dict(orientation_key="index"),
            dict(coloring_preprune=True),
        ):
            r = find_maximum_cliques(g, **kw)
            assert r.clique_number == base.clique_number
            assert r.num_maximum_cliques == base.num_maximum_cliques


class TestMemoryInvariants:
    @given(random_graphs(max_n=20))
    @settings(**SETTINGS)
    def test_oom_monotone_in_budget(self, g):
        """If a budget suffices, every larger budget must too."""
        from repro.errors import DeviceOOMError

        outcomes = []
        for shift in (15, 17, 19, 23, 26):
            dev = Device(DeviceSpec(memory_bytes=1 << shift))
            try:
                find_maximum_cliques(g, device=dev)
                outcomes.append(True)
            except DeviceOOMError:
                outcomes.append(False)
        # monotone: no True before a False
        assert outcomes == sorted(outcomes)

    @given(random_graphs(max_n=20))
    @settings(**SETTINGS)
    def test_device_memory_restored(self, g):
        dev = Device(DeviceSpec(memory_bytes=1 << 26))
        before = dev.pool.in_use_bytes
        find_maximum_cliques(g, device=dev)
        assert dev.pool.in_use_bytes == before
