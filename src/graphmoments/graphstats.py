"""Per-graph statistics shared by the counting kernels.

``Graph.stats`` is built once per graph and keeps only O(n + E) arrays:
degrees d, D^(2) = A d - d, per-edge triangle counts B = A^2 ∘ A aligned
with the CSR entries, triangles per vertex, and the memoised per-hub
columns of closed-form wheel keys (filled by ``hubs``).

Triangles come from a listing (Latapy, TCS 2008; Chiba & Nishizeki, SIAM
J. Comput. 1985): edges point to the endpoint of higher (degree, id) rank,
so each triangle is one wedge of forward edges at its lowest vertex,
closed by ``searchsorted`` in the sorted CSR keys i*n + j.  Extending a
triangle by the forward neighbours of its top vertex lists each K4 once.
Sums over A^2 take one row block A[r0:r1] @ A at a time.  Wedges, K4
candidates and A^2 rows come in chunks whose temporaries stay under
BLOCK_BYTES (a chunk holds at least one item), so no kernel holds A^2.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InvariantError

BLOCK_BYTES = 1 << 25  # temporaries one chunk of a kernel may hold
_ITEM_BYTES = 64  # temporaries per wedge, K4 candidate or A^2 entry


def _chunks(weights: np.ndarray):
    """Consecutive (lo, hi) item ranges, each of total weight at most
    BLOCK_BYTES / _ITEM_BYTES unless a single item is heavier."""
    cap = max(1, BLOCK_BYTES // _ITEM_BYTES)
    ends = np.cumsum(weights)
    lo = 0
    while lo < ends.size:
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + cap, side="right")))
        yield lo, hi
        lo = hi


def row_sums(indptr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact per-row sums of values aligned with the entries of a CSR matrix."""
    out = np.zeros(indptr.size - 1, dtype=x.dtype)
    rows = np.flatnonzero(np.diff(indptr))
    if rows.size:
        out[rows] = np.add.reduceat(x, indptr[rows])
    return out


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(item repeated counts[item] times, 0..counts[item]-1 within each)."""
    item = np.repeat(np.arange(counts.size), counts)
    start = np.cumsum(counts) - counts
    return item, np.arange(item.size) - start[item]


class GraphStats:
    """Cached statistics of one graph; see the module docstring."""

    def __init__(self, g):
        self.n = g.n
        self.indptr = g.indptr
        self.indices = g.indices
        self.adjacency = g.adjacency
        self.d = g.degrees.astype(np.int64)
        self.src = np.repeat(np.arange(g.n, dtype=np.int64), self.d)  # row of each entry
        self.hub_columns: dict = {}

    @cached_property
    def d2(self) -> np.ndarray:
        """D^(2): 2-paths from each vertex, sum over neighbours of d_j - 1."""
        return self.adjacency @ self.d - self.d

    @cached_property
    def _keys(self) -> np.ndarray:
        return self.src * self.n + self.indices  # ascending: rows, then sorted columns

    def _find(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """CSR position of each entry (i, j), or -1 where i and j are not adjacent."""
        q = i * self.n + j
        pos = np.minimum(np.searchsorted(self._keys, q), self._keys.size - 1)
        return np.where(self._keys[pos] == q, pos, -1)

    @cached_property
    def _forward(self) -> tuple[np.ndarray, np.ndarray]:
        """(rank, CSR positions of the entries pointing to a higher rank)."""
        rank = np.empty(self.n, dtype=np.int64)
        rank[np.lexsort((np.arange(self.n), self.d))] = np.arange(self.n)
        return rank, np.flatnonzero(rank[self.src] < rank[self.indices])

    def _triangles(self):
        """Yield, one chunk of wedges at a time, the CSR positions (uv, uw, vw)
        of the edges of triangles {u, v, w}, u the lowest-ranked vertex."""
        _, fwd = self._forward
        fsrc = self.src[fwd]
        later = np.searchsorted(fsrc, fsrc, side="right") - np.arange(fwd.size) - 1
        for lo, hi in _chunks(later):
            item, off = _expand(later[lo:hi])
            uv = fwd[lo + item]
            uw = fwd[lo + item + 1 + off]
            vw = self._find(self.indices[uv], self.indices[uw])
            hit = vw >= 0
            yield uv[hit], uw[hit], vw[hit]

    @cached_property
    def edge_triangles(self) -> np.ndarray:
        """B: triangles through each CSR entry's edge, (A^2)_ij for i ~ j."""
        # each triangle marks one direction of each of its edges; add the other
        half = np.zeros(self.indices.size, dtype=np.int64)
        for tri in self._triangles():
            for e in tri:
                np.add.at(half, e, 1)
        other = np.empty_like(half)
        # sorting entries by column lists their reverses in CSR order
        other[np.argsort(self.indices, kind="stable")] = half
        return half + other

    @cached_property
    def triangles(self) -> np.ndarray:
        """Triangles through each vertex, half the row sums of B."""
        twice = row_sums(self.indptr, self.edge_triangles)
        if np.any(twice % 2):
            raise InvariantError("per-edge triangle counts have an odd row sum")
        return twice // 2

    def clique_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Per vertex i: (sum over ordered triangles (i, a, b) of B_ab, K4s through i)."""
        b = self.edge_triangles
        rank, fwd = self._forward
        fptr = np.searchsorted(self.src[fwd], np.arange(self.n + 1))
        opposite = np.zeros(self.n, dtype=np.int64)
        k4 = np.zeros(self.n, dtype=np.int64)
        for uv, uw, vw in self._triangles():
            u, v, w = self.src[uv], self.indices[uv], self.indices[uw]
            for x, e in ((u, vw), (v, uw), (w, uv)):
                np.add.at(opposite, x, 2 * b[e])
            # extend each triangle by the forward neighbours x of its top vertex
            top_w = rank[w] > rank[v]
            top, mid = np.where(top_w, w, v), np.where(top_w, v, w)
            cand = fptr[top + 1] - fptr[top]
            for lo, hi in _chunks(cand):
                item, off = _expand(cand[lo:hi])
                item += lo
                x = self.indices[fwd[fptr[top[item]] + off]]
                hit = (self._find(u[item], x) >= 0) & (self._find(mid[item], x) >= 0)
                for y in (u[item], mid[item], top[item], x):
                    np.add.at(k4, y[hit], 1)
        return opposite, k4

    def a2_blocks(self):
        """Yield (r0, r1, A[r0:r1] @ A) over consecutive row blocks of A^2."""
        a = self.adjacency
        for lo, hi in _chunks(self.d2 + self.d):  # 2-walks bound each row's entries
            yield lo, hi, a[lo:hi] @ a
