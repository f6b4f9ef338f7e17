"""Property-based fuzzing of the graph file parsers.

Two invariants: (1) round-tripping any graph through any format is
lossless; (2) arbitrary text never crashes a parser with anything but
:class:`~repro.errors.GraphFormatError` (or produces a valid graph).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import (
    from_edge_list,
    read_dimacs,
    read_edge_list,
    read_mtx,
    write_dimacs,
    write_edge_list,
    write_mtx,
)

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 20))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=50,
        )
    )
    return from_edge_list(edges, num_vertices=n)


class TestRoundTrips:
    @given(g=graphs())
    @settings(**SETTINGS)
    def test_edge_list_round_trip(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("io") / "g.edges"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g2.num_vertices == g.num_vertices
        assert (g2.row_offsets == g.row_offsets).all()
        assert (g2.col_indices == g.col_indices).all()

    @given(g=graphs())
    @settings(**SETTINGS)
    def test_mtx_round_trip(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("io") / "g.mtx"
        write_mtx(g, path)
        g2 = read_mtx(path)
        assert g2.num_vertices == g.num_vertices
        assert (g2.row_offsets == g.row_offsets).all()
        assert (g2.col_indices == g.col_indices).all()

    @given(g=graphs())
    @settings(**SETTINGS)
    def test_dimacs_round_trip(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("io") / "g.clq"
        write_dimacs(g, path)
        g2 = read_dimacs(path)
        assert g2.num_vertices == g.num_vertices
        assert (g2.col_indices == g.col_indices).all()


# printable junk with the separators the parsers care about
junk_text = st.text(
    alphabet=st.sampled_from("0123456789 \n\t%#pecde.-abc"), max_size=300
)


class TestParserRobustness:
    @given(text=junk_text)
    @settings(**SETTINGS)
    def test_edge_list_never_crashes(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "junk.txt"
        path.write_text(text)
        try:
            g = read_edge_list(path)
        except GraphFormatError:
            return
        g.validate()

    @given(text=junk_text)
    @settings(**SETTINGS)
    def test_mtx_never_crashes(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "junk.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n" + text)
        try:
            g = read_mtx(path)
        except GraphFormatError:
            return
        g.validate()

    @given(text=junk_text)
    @settings(**SETTINGS)
    def test_dimacs_never_crashes(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "junk.clq"
        path.write_text(text)
        try:
            g = read_dimacs(path)
        except GraphFormatError:
            return
        g.validate()
