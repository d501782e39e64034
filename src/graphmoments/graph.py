"""Immutable simple-graph storage and edge-list text I/O.

Graphs are undirected, unweighted, with no self-loops and no parallel
edges.  Adjacency is CSR-style: a flat ``indices`` array of neighbors with
``indptr`` offsets, each neighbor list sorted ascending.  The vertex count
``n`` is stored explicitly so isolated vertices survive a write/read round
trip (the writer emits a ``# n=<count>`` comment header for an unlabelled
graph).  This module is numpy only: a scipy matrix of A is built by
``Graph.stats`` when an A^2 pass needs it.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError, GraphFormatError
from .graphstats import GraphStats

_WRITE_EDGES = 1 << 16  # edges whose text write_edge_list builds at once
# "# n=<count>" on a line of its own; [^\S\n] is whitespace within a line
_N_HEADER = re.compile(r"^[^\S\n]*#[^\S\n]*n[^\S\n]*=[^\S\n]*(\d+)[^\S\n]*$", re.M)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with CSR adjacency.

    Attributes:
        n: number of vertices (vertex ids are 0..n-1).
        indptr: int64 array of length n+1; row i's neighbors live in
            indices[indptr[i]:indptr[i+1]], sorted ascending.
        indices: int64 array of neighbor ids (each edge appears twice).
        labels: optional tuple of original vertex labels, index-aligned.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    labels: tuple | None = None

    @classmethod
    def from_edges(
        cls,
        edges: Sequence | np.ndarray,
        num_vertices: int | None = None,
        labels: tuple | None = None,
    ) -> "Graph":
        """Build a graph from an (E, 2) array of vertex-id pairs.

        Duplicate edges are collapsed; orientation is ignored.  Self-loops
        raise GraphFormatError.
        """
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if e.size and e.min() < 0:
            raise GraphFormatError("negative vertex id")
        n = int(num_vertices) if num_vertices is not None else (int(e.max()) + 1 if e.size else 0)
        if e.size and int(e.max()) >= n:
            raise GraphFormatError(f"vertex id {int(e.max())} outside 0..{n - 1}")
        if np.any(e[:, 0] == e[:, 1]):
            bad = int(e[np.flatnonzero(e[:, 0] == e[:, 1])[0], 0])
            raise GraphFormatError(f"self-loop at vertex {bad}")
        lo = np.minimum(e[:, 0], e[:, 1])
        hi = np.maximum(e[:, 0], e[:, 1])
        # one sort over the scalar keys of both orientations; n^2 stays below
        # 2^63 for n < 2^31
        nn = np.int64(n)
        key = np.sort(np.concatenate([lo * nn + hi, hi * nn + lo]))
        key = key[np.diff(key, prepend=-1) != 0]  # duplicates are neighbours
        indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * nn)
        return cls(n=n, indptr=indptr, indices=key % max(n, 1), labels=labels)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def stats(self) -> GraphStats:
        """The graph's cached statistics layer; see graphstats."""
        return GraphStats(self)

    @property
    def edge_count(self) -> int:
        return int(self.indices.size) // 2

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def edges(self) -> np.ndarray:
        """Return an (L, 2) array of edges with endpoints ascending, sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def average_degree(g: Graph) -> float:
    """Mean degree 2L/n.  Requires n >= 1."""
    if g.n < 1:
        raise DomainError("average_degree needs at least one vertex")
    return 2.0 * g.edge_count / g.n


def rho_hat(g: Graph) -> float:
    """Empirical edge density 2L/(n(n-1)) = average_degree/(n-1).  Requires n >= 2."""
    if g.n < 2:
        raise DomainError("rho_hat needs at least two vertices")
    return 2.0 * g.edge_count / (g.n * (g.n - 1))


def lambda_hat(g: Graph) -> float:
    """Empirical expected-degree scale (n-1) * rho_hat, which equals 2L/n."""
    return (g.n - 1) * rho_hat(g)


def _read_text(source) -> str:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    return "".join(line if line.endswith("\n") else line + "\n" for line in source)


def _parse_pairs(text: str, dtype) -> np.ndarray | None:
    """The (E, 2) token table of an edge list, or None if numpy's reader rejects it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty input, blank lines
        try:
            rows = np.loadtxt(io.StringIO(text), dtype=dtype, comments="#", ndmin=2)
        except ValueError:
            return None
    if rows.size == 0:
        return rows.reshape(0, 2)
    return rows if rows.shape[1] == 2 else None


def _raise_first_fault(text: str, integer_labels: bool, n_fixed: int | None):
    """Re-read a rejected edge list line by line; raise its first fault."""
    over = None
    for ln, raw in enumerate(text.split("\n"), start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if len(toks) != 2:
            raise GraphFormatError(f"line {ln}: expected two vertex ids, got {len(toks)}")
        a, b = toks
        if integer_labels:
            if not all(re.fullmatch(r"[+-]?[0-9]+", t) for t in toks):  # as numpy reads ints
                raise GraphFormatError(f"line {ln}: non-integer vertex id")
            a, b = int(a), int(b)
            if a < 0 or b < 0:
                raise GraphFormatError(f"line {ln}: negative vertex id")
            if max(a, b) >= 2**63:
                raise GraphFormatError(f"line {ln}: vertex id {max(a, b)} exceeds int64")
        if a == b:
            raise GraphFormatError(f"line {ln}: self-loop at {a!r}")
        if over is None and n_fixed is not None and max(a, b) >= n_fixed:
            over = ln
    if over is not None:
        raise GraphFormatError(f"line {over}: vertex id exceeds declared n={n_fixed}")
    raise GraphFormatError("edge list rejected by numpy's reader but by no line check")


def load_edge_list(
    source,
    num_vertices: int | None = None,
    integer_labels: bool = True,
) -> Graph:
    """Parse whitespace-separated vertex pairs into a Graph.

    Lines are ``u v`` pairs; ``#`` starts a comment (whole line or trailing);
    blank lines are skipped.  With integer_labels, ids are interned by
    ascending numeric value; a ``# n=<count>`` header (or the num_vertices
    argument, which wins) fixes the vertex count so ids are taken literally
    and isolated vertices are representable.  With integer_labels=False,
    tokens are kept as opaque labels interned in first-seen order and the
    mapping is retained on the graph.

    The text is parsed by numpy's C reader, so an integer id is an optional
    sign and ASCII digits that fit int64.  Only a rejected input is re-read
    line by line, to name its first faulty line.

    Args:
        source: path, file object, or iterable of lines.
        num_vertices: explicit vertex count (integer mode only).
        integer_labels: treat tokens as integer ids (default) or labels.

    Raises:
        GraphFormatError: malformed line, self-loop, or out-of-range id,
            reported with its 1-based line number.
    """
    text = _read_text(source)
    n_fixed, pos = num_vertices, text.find("#")
    while num_vertices is None and pos >= 0:  # the last "# n=<count>" line, if any
        end = text.find("\n", pos) % (len(text) + 1)  # the last line may have no "\n"
        header = _N_HEADER.match(text, text.rfind("\n", 0, pos) + 1, end)
        n_fixed = int(header.group(1)) if header else n_fixed
        pos = text.find("#", end)
    if not integer_labels:
        n_fixed = None
    e = _parse_pairs(text, np.int64 if integer_labels else str)
    if (
        e is None
        or np.any(e[:, 0] == e[:, 1])
        or (integer_labels and e.size and e.min() < 0)
        or (n_fixed is not None and e.size and e.max() >= n_fixed)
    ):
        _raise_first_fault(text, integer_labels, n_fixed)

    if n_fixed is not None:
        return Graph.from_edges(e, n_fixed)
    if integer_labels:
        ids, inverse = np.unique(e, return_inverse=True)
        labels = None if ids.size == 0 or ids[-1] == ids.size - 1 else tuple(ids.tolist())
        return Graph.from_edges(inverse.reshape(-1, 2), ids.size, labels=labels)
    tokens, first, inverse = np.unique(e, return_index=True, return_inverse=True)
    order = np.argsort(first)  # first-seen order of the labels
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    e = rank[inverse].reshape(-1, 2)
    return Graph.from_edges(e, tokens.size, labels=tuple(tokens[order].tolist()))


def write_edge_list(g: Graph, sink) -> None:
    """Write one edge per line, endpoints ascending, lines sorted.

    An unlabelled graph gets a ``# n=<count>`` header so isolated vertices
    round-trip; the header is a plain comment to other tools.  A labelled
    graph writes its labels instead of internal ids (line order still
    follows internal ids, which is the interning order) and no header,
    since its labels are not ids below the vertex count.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_edge_list(g, fh)
        return
    edges = g.edges()
    sink.write("" if g.labels is not None else f"# n={g.n}\n")
    # the text of _WRITE_EDGES edges at a time, so its strings never hold every edge
    for lo in range(0, len(edges), _WRITE_EDGES):
        src, dst = edges[lo : lo + _WRITE_EDGES].T.tolist()  # two flat lists convert fastest
        if g.labels is not None:
            src, dst = [g.labels[i] for i in src], [g.labels[j] for j in dst]
        sink.write("".join([f"{i} {j}\n" for i, j in zip(src, dst)]))
