"""Graph file readers and writers.

Supports the three formats the Network Repository distributes its
datasets in: whitespace edge lists (``.edges``/``.txt``), Matrix Market
coordinate files (``.mtx``), and DIMACS clique-benchmark files
(``.clq``/``.col``). The loader plays the role of Gunrock's graph
loader in the paper's pipeline: parse, normalise to undirected simple
form, and hand back a CSR.

Every reader and writer transparently handles gzip compression when
the path carries a ``.gz`` double extension (``graph.edges.gz``,
``graph.mtx.gz``, ...): the inner extension picks the format, the
outer one the compression. Remote clients of the solve server ship
graphs this way (see docs/SERVER.md), so the compressed path is
first-class, not an afterthought.
"""

from __future__ import annotations

import gzip
import re
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..errors import GraphFormatError
from .build import from_edge_array
from .csr import CSRGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_mtx",
    "write_mtx",
    "read_dimacs",
    "write_dimacs",
    "load_graph",
    "parse_edge_list_text",
    "format_edge_list",
]

PathLike = Union[str, Path]


def _is_gz(path: PathLike) -> bool:
    return Path(path).suffix.lower() == ".gz"


def _read_lines(path: PathLike):
    opener = gzip.open if _is_gz(path) else open
    try:
        with opener(path, "rt", encoding="utf-8") as fh:
            for line in fh:
                yield line
    except (gzip.BadGzipFile, EOFError) as exc:
        raise GraphFormatError(f"{path}: corrupt gzip stream: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not a text graph file: {exc}") from exc


def _open_write(path: PathLike):
    opener = gzip.open if _is_gz(path) else open
    return opener(path, "wt", encoding="utf-8")


def _int(token: str, path: PathLike, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise GraphFormatError(
            f"{path}:{lineno}: expected an integer {what}, got {token!r}"
        ) from exc


#: the vertex-count comment :func:`format_edge_list` writes first
_VERTEX_COUNT = re.compile(r"[#%]\s*\|V\|=(\d+)")


def _parse_edge_lines(
    lines, source, comment_chars: str = "#%", max_vertices: Optional[int] = None
) -> CSRGraph:
    """Shared edge-list parsing core (files and wire payloads).

    A ``# |V|=n`` comment fixes the vertex count (else the largest id
    plus one); more than ``max_vertices`` is refused before building.
    """
    n = None
    src = []
    dst = []
    for lineno, line in enumerate(lines, 1):
        s = line.strip()
        if not s or s[0] in comment_chars:
            header = _VERTEX_COUNT.match(s)
            if header:
                n = _int(header.group(1), source, lineno, "vertex count")
            continue
        parts = s.split()
        if len(parts) < 2:
            raise GraphFormatError(f"{source}:{lineno}: expected 'u v', got {s!r}")
        try:
            src.append(int(parts[0]))
            dst.append(int(parts[1]))
        except ValueError as exc:
            raise GraphFormatError(
                f"{source}:{lineno}: non-integer vertex id"
            ) from exc
    try:
        ids = np.array([src, dst], dtype=np.int64)
    except OverflowError as exc:
        raise GraphFormatError(f"{source}: vertex id out of range") from exc
    top = max(int(ids.max(initial=-1)) + 1, n or 0)
    if max_vertices is not None and top > max_vertices:
        raise GraphFormatError(f"{source}: graph has more than {max_vertices} vertices")
    return from_edge_array(ids[0], ids[1], num_vertices=n)


def read_edge_list(path: PathLike, comment_chars: str = "#%") -> CSRGraph:
    """Read a whitespace-separated edge list (one ``u v`` pair per line)."""
    return _parse_edge_lines(_read_lines(path), path, comment_chars)


def parse_edge_list_text(
    text: str, source: str = "<edge-list>", max_vertices: Optional[int] = None
) -> CSRGraph:
    """Parse edge-list *text* (the solve server's inline graph payload)."""
    return _parse_edge_lines(text.splitlines(), source, max_vertices=max_vertices)


def format_edge_list(graph: CSRGraph) -> str:
    """Edge-list text: a ``# |V|=n |E|=m`` header, one ``u v`` line per edge.

    The file writer and the solve server's inline graph payload share it.
    """
    src, dst = graph.to_edge_list()
    lines = [f"# |V|={graph.num_vertices} |E|={graph.num_edges}\n"]
    lines.extend(f"{u} {v}\n" for u, v in zip(src.tolist(), dst.tolist()))
    return "".join(lines)


def write_edge_list(graph: CSRGraph, path: PathLike) -> None:
    """Write one ``u v`` pair per undirected edge, after the header."""
    with _open_write(path) as fh:
        fh.write(format_edge_list(graph))


def read_mtx(path: PathLike) -> CSRGraph:
    """Read a Matrix Market coordinate file as an undirected graph.

    Entry values (weights) are ignored; only the sparsity pattern is
    used, matching the paper's treatment of weighted inputs.
    """
    lines = _read_lines(path)
    try:
        header = next(lines)
    except StopIteration:
        raise GraphFormatError(f"{path}: empty file") from None
    if not header.startswith("%%MatrixMarket"):
        raise GraphFormatError(f"{path}: missing MatrixMarket header")
    tokens = header.lower().split()
    if "coordinate" not in tokens:
        raise GraphFormatError(f"{path}: only coordinate format is supported")
    dims = None
    src = []
    dst = []
    for lineno, line in enumerate(lines, 2):
        s = line.strip()
        if not s or s.startswith("%"):
            continue
        parts = s.split()
        if dims is None:
            if len(parts) != 3:
                raise GraphFormatError(f"{path}:{lineno}: expected 'rows cols nnz'")
            dims = (
                _int(parts[0], path, lineno, "row count"),
                _int(parts[1], path, lineno, "column count"),
            )
            continue
        if len(parts) < 2:
            raise GraphFormatError(f"{path}:{lineno}: expected 'i j [value]'")
        i = _int(parts[0], path, lineno, "row index")
        j = _int(parts[1], path, lineno, "column index")
        if i < 1 or j < 1:
            raise GraphFormatError(f"{path}:{lineno}: MTX indices are 1-based")
        src.append(i - 1)  # MTX is 1-based
        dst.append(j - 1)
    if dims is None:
        raise GraphFormatError(f"{path}: missing size line")
    n = max(dims)
    return from_edge_array(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        num_vertices=n,
    )


def write_mtx(graph: CSRGraph, path: PathLike) -> None:
    """Write the graph as a symmetric Matrix Market pattern file."""
    src, dst = graph.to_edge_list()
    with _open_write(path) as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"{graph.num_vertices} {graph.num_vertices} {src.size}\n")
        for u, v in zip(src.tolist(), dst.tolist()):
            fh.write(f"{u + 1} {v + 1}\n")


def read_dimacs(path: PathLike) -> CSRGraph:
    """Read a DIMACS ``p edge`` file (the clique benchmark format)."""
    n = None
    src = []
    dst = []
    for lineno, line in enumerate(_read_lines(path), 1):
        s = line.strip()
        if not s or s.startswith("c"):
            continue
        parts = s.split()
        if parts[0] == "p":
            if len(parts) < 4 or parts[1] not in ("edge", "col"):
                raise GraphFormatError(f"{path}:{lineno}: malformed problem line")
            n = _int(parts[2], path, lineno, "vertex count")
            if n < 0:
                raise GraphFormatError(f"{path}:{lineno}: negative vertex count")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"{path}:{lineno}: edge before problem line")
            if len(parts) < 3:
                raise GraphFormatError(f"{path}:{lineno}: expected 'e u v'")
            u = _int(parts[1], path, lineno, "endpoint")
            v = _int(parts[2], path, lineno, "endpoint")
            if u < 1 or v < 1:
                raise GraphFormatError(f"{path}:{lineno}: DIMACS ids are 1-based")
            src.append(u - 1)  # DIMACS is 1-based
            dst.append(v - 1)
        else:
            raise GraphFormatError(f"{path}:{lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphFormatError(f"{path}: missing problem line")
    return from_edge_array(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        num_vertices=n,
    )


def write_dimacs(graph: CSRGraph, path: PathLike) -> None:
    """Write the graph in DIMACS ``p edge`` format."""
    src, dst = graph.to_edge_list()
    with _open_write(path) as fh:
        fh.write(f"p edge {graph.num_vertices} {src.size}\n")
        for u, v in zip(src.tolist(), dst.tolist()):
            fh.write(f"e {u + 1} {v + 1}\n")


def load_graph(path: PathLike) -> CSRGraph:
    """Load a graph, dispatching on file extension.

    A ``.gz`` outer extension selects gzip decompression and the inner
    extension the format: ``graph.edges.gz`` is a compressed edge list.
    """
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".gz":
        inner = Path(p.stem).suffix.lower()
        if not inner:
            raise GraphFormatError(
                f"{p}: compressed graphs need a double extension "
                f"(e.g. .edges.gz, .mtx.gz) to pick the format"
            )
        suffix = inner
    if suffix == ".mtx":
        return read_mtx(p)
    if suffix in (".clq", ".col", ".dimacs"):
        return read_dimacs(p)
    if suffix in (".edges", ".txt", ".el", ".tsv", ".csv"):
        return read_edge_list(p)
    raise GraphFormatError(f"unrecognised graph file extension {suffix!r} for {p}")
