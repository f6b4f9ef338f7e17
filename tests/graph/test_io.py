"""Round-trip and failure-injection tests for graph file IO."""

import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    from_edge_list,
    load_graph,
    read_dimacs,
    read_edge_list,
    read_mtx,
    write_dimacs,
    write_edge_list,
    write_mtx,
)
from repro.graph import generators as gen


@pytest.fixture
def graph():
    return gen.erdos_renyi(25, 0.3, seed=11)


class TestEdgeList:
    def test_round_trip(self, graph, tmp_path):
        path = tmp_path / "g.edges"
        write_edge_list(graph, path)
        g2 = read_edge_list(path)
        assert (g2.col_indices == graph.col_indices).all()

    def test_round_trip_keeps_trailing_isolated_vertices(self, tmp_path):
        triangle = from_edge_list([(0, 1), (1, 2), (0, 2)], num_vertices=6)
        write_edge_list(triangle, tmp_path / "g.edges")
        g = read_edge_list(tmp_path / "g.edges")
        assert g.num_vertices == 6
        assert g.fingerprint() == triangle.fingerprint()

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n0 1\n% another\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_extra_columns_tolerated(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 3.5\n")
        assert read_edge_list(path).num_edges == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)


class TestMTX:
    def test_round_trip(self, graph, tmp_path):
        path = tmp_path / "g.mtx"
        write_mtx(graph, path)
        g2 = read_mtx(path)
        assert (g2.col_indices == graph.col_indices).all()

    def test_one_based_indexing(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 2\n"
        )
        g = read_mtx(path)
        assert g.has_edge(0, 1)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("1 1 0\n")
        with pytest.raises(GraphFormatError):
            read_mtx(path)

    def test_dense_format_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n")
        with pytest.raises(GraphFormatError):
            read_mtx(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("")
        with pytest.raises(GraphFormatError):
            read_mtx(path)

    def test_missing_size_line_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n")
        with pytest.raises(GraphFormatError):
            read_mtx(path)

    def test_values_ignored(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 2 0.5\n2 3 1.5\n"
        )
        g = read_mtx(path)
        assert g.num_edges == 2


class TestDIMACS:
    def test_round_trip(self, graph, tmp_path):
        path = tmp_path / "g.clq"
        write_dimacs(graph, path)
        g2 = read_dimacs(path)
        assert (g2.col_indices == graph.col_indices).all()

    def test_edge_before_problem_rejected(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_text("e 1 2\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(path)

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_text("p edge 2 1\nx 1 2\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_text("c hello\np edge 3 1\ne 1 3\n")
        g = read_dimacs(path)
        assert g.has_edge(0, 2)

    def test_missing_problem_line(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_text("c only comments\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(path)


class TestGzip:
    @pytest.mark.parametrize(
        "suffix,writer,reader",
        [
            (".edges.gz", write_edge_list, read_edge_list),
            (".mtx.gz", write_mtx, read_mtx),
            (".clq.gz", write_dimacs, read_dimacs),
        ],
    )
    def test_round_trip(self, graph, tmp_path, suffix, writer, reader):
        path = tmp_path / f"g{suffix}"
        writer(graph, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # really gzip on disk
        g2 = reader(path)
        assert g2.num_vertices == graph.num_vertices
        assert (g2.col_indices == graph.col_indices).all()

    def test_compression_shrinks_large_files(self, tmp_path):
        big = gen.erdos_renyi(300, 0.2, seed=7)
        plain = tmp_path / "g.edges"
        packed = tmp_path / "g.edges.gz"
        write_edge_list(big, plain)
        write_edge_list(big, packed)
        assert packed.stat().st_size < plain.stat().st_size

    def test_corrupt_gzip_rejected(self, tmp_path):
        path = tmp_path / "g.edges.gz"
        path.write_bytes(b"\x1f\x8b this is not a gzip stream")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_plain_text_with_gz_name_rejected(self, tmp_path):
        path = tmp_path / "g.edges.gz"
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)


class TestParseEdgeListText:
    def test_parse(self):
        from repro.graph import parse_edge_list_text

        g = parse_edge_list_text("# header\n0 1\n\n1 2\n% note\n0 2\n")
        assert g.num_vertices == 3 and g.num_edges == 3

    def test_malformed_text_rejected(self):
        from repro.graph import parse_edge_list_text

        with pytest.raises(GraphFormatError) as excinfo:
            parse_edge_list_text("0 1\nbroken\n", source="<unit>")
        assert "<unit>" in str(excinfo.value)

    def test_header_keeps_trailing_isolated_vertices(self):
        from repro.graph import parse_edge_list_text

        g = parse_edge_list_text("# |V|=6 |E|=3\n0 1\n1 2\n0 2\n")
        assert g.num_vertices == 6 and g.num_edges == 3

    def test_id_at_the_header_count_rejected(self):
        from repro.graph import parse_edge_list_text

        with pytest.raises(GraphFormatError):
            parse_edge_list_text("# |V|=3\n0 1\n1 3\n")

    @pytest.mark.parametrize(
        "text", ["0 5\n", "# |V|=6\n0 1\n", "0 99999999999999999999\n"]
    )
    def test_max_vertices_bounds_ids_and_header(self, text):
        from repro.graph import parse_edge_list_text

        with pytest.raises(GraphFormatError):
            parse_edge_list_text(text, max_vertices=5)

    def test_max_vertices_admits_a_graph_at_the_bound(self):
        from repro.graph import parse_edge_list_text

        g = parse_edge_list_text("# |V|=5\n0 4\n", max_vertices=5)
        assert g.num_vertices == 5


class TestLoadGraph:
    @pytest.mark.parametrize(
        "suffix,writer",
        [(".edges", write_edge_list), (".mtx", write_mtx), (".clq", write_dimacs)],
    )
    def test_dispatch_by_extension(self, graph, tmp_path, suffix, writer):
        path = tmp_path / f"g{suffix}"
        writer(graph, path)
        g2 = load_graph(path)
        assert g2.num_edges == graph.num_edges

    def test_unknown_extension_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(tmp_path / "g.xyz")

    @pytest.mark.parametrize(
        "suffix,writer",
        [
            (".edges.gz", write_edge_list),
            (".mtx.gz", write_mtx),
            (".clq.gz", write_dimacs),
        ],
    )
    def test_double_extension_dispatch(self, graph, tmp_path, suffix, writer):
        path = tmp_path / f"g{suffix}"
        writer(graph, path)
        g2 = load_graph(path)
        assert g2.num_edges == graph.num_edges

    def test_bare_gz_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError) as excinfo:
            load_graph(tmp_path / "g.gz")
        assert "double extension" in str(excinfo.value)

    def test_unknown_inner_extension_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(tmp_path / "g.xyz.gz")
