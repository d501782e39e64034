"""Immutable simple-graph storage and edge-list text I/O.

Graphs are undirected, unweighted, with no self-loops and no parallel
edges.  Adjacency is CSR-style: a flat ``indices`` array of neighbors with
``indptr`` offsets, each neighbor list sorted ascending.  The vertex count
``n`` is stored explicitly so isolated vertices survive a write/read round
trip (the writer emits a ``# n=<count>`` comment header for this).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import DomainError, GraphFormatError
from .graphstats import GraphStats

_N_HEADER = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


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
        # dedupe through a single scalar key; n^2 stays below 2^63 for n < 2^31
        key = np.unique(lo * np.int64(n) + hi)
        lo, hi = key // n, key % n
        both = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        order = np.lexsort((both[1], both[0]))
        src, dst = both[0][order], both[1][order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n=n, indptr=indptr, indices=dst, labels=labels)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def adjacency(self):
        """Adjacency as a scipy CSR matrix of int64 ones, built once."""
        data = np.ones(self.indices.size, dtype=np.int64)
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

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


def _lines_from(source) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    else:
        yield from source


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

    Args:
        source: path, file object, or iterable of lines.
        num_vertices: explicit vertex count (integer mode only).
        integer_labels: treat tokens as integer ids (default) or labels.

    Raises:
        GraphFormatError: malformed line, self-loop, or out-of-range id,
            reported with its 1-based line number.
    """
    pairs: list[tuple] = []
    header_n: int | None = None
    for ln, raw in enumerate(_lines_from(source), start=1):
        m = _N_HEADER.match(raw.strip())
        if m is not None:
            header_n = int(m.group(1))
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            raise GraphFormatError(f"line {ln}: expected two vertex ids, got {len(toks)}")
        a, b = toks
        if integer_labels:
            try:
                a, b = int(a), int(b)
            except ValueError:
                raise GraphFormatError(f"line {ln}: non-integer vertex id") from None
            if a < 0 or b < 0:
                raise GraphFormatError(f"line {ln}: negative vertex id")
        if a == b:
            raise GraphFormatError(f"line {ln}: self-loop at {a!r}")
        pairs.append((a, b))

    if integer_labels:
        n_fixed = num_vertices if num_vertices is not None else header_n
        if n_fixed is not None:
            if pairs and max(max(p) for p in pairs) >= n_fixed:
                raise GraphFormatError(f"vertex id exceeds declared n={n_fixed}")
            return Graph.from_edges(np.array(pairs, dtype=np.int64).reshape(-1, 2), n_fixed)
        ids = sorted({v for p in pairs for v in p})
        index = {v: i for i, v in enumerate(ids)}
        e = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.int64).reshape(-1, 2)
        labels = None if ids == list(range(len(ids))) else tuple(ids)
        return Graph.from_edges(e, len(ids), labels=labels)

    seen: dict = {}
    for a, b in pairs:
        for v in (a, b):
            if v not in seen:
                seen[v] = len(seen)
    e = np.array([(seen[a], seen[b]) for a, b in pairs], dtype=np.int64).reshape(-1, 2)
    return Graph.from_edges(e, len(seen), labels=tuple(seen))


def write_edge_list(g: Graph, sink, header: bool = True) -> None:
    """Write one edge per line, endpoints ascending, lines sorted.

    Emits a ``# n=<count>`` header so isolated vertices round-trip; the
    header is a plain comment to other tools.  When the graph carries
    labels, those are emitted instead of internal ids (line order still
    follows internal ids, which is the interning order).
    """

    def _dump(fh) -> None:
        if header:
            fh.write(f"# n={g.n}\n")
        lab = g.labels
        for i, j in g.edges():
            if lab is None:
                fh.write(f"{i} {j}\n")
            else:
                fh.write(f"{lab[i]} {lab[j]}\n")

    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            _dump(fh)
    else:
        _dump(sink)
