"""Per-graph statistics shared by the counting kernels.

``Graph.stats`` is built once per graph and keeps only O(n + E) arrays:
degrees d, D^(2) = A d - d, per-edge triangle counts B = A^2 ∘ A aligned
with the CSR entries, triangles per vertex, the k = 2 sums over A^2 and the
memoised per-hub columns of closed-form wheel keys (filled by ``hubs``).
Only the A^2 passes build a scipy matrix (``adjacency``); the rest is numpy.

The k = 2 sums come from one pass over the row blocks of A^2 (``a2_sums``),
which also reads B if nothing has cached it yet.  A^2 is symmetric, so the
pass splits the rows into _BANDS bands and forms each pair {i, k} of two
bands once, in the earlier row; B at the entries it skips is copied from
the reverse entries.  Otherwise B comes from a triangle listing (Latapy,
TCS 2008; Chiba & Nishizeki, SIAM J. Comput. 1985): edges point to the
endpoint of higher (degree, id) rank, so each triangle is one wedge of
forward edges at its lowest vertex, closed by ``searchsorted`` in the
sorted CSR keys i*n + j, and each count is added to the reverse entry.
Both reverse steps look each entry up or radix-sort the column indices
once, whichever is cheaper.  Triangle counts and D^(3) list only when no
k = 2 wheel came first.  (2,3)'s cross sum (``a2_cross``) reads ``a2_sums``
first and then multiplies each block's rows of A ∘ X by all of A, X_ij =
d_j - 2 + B_ij, as that product is not symmetric; so in any key order each
row block's two products are formed once.  Its clique terms list again,
but pair only triangle edges (B >= 1) and extend a triangle to K4s only
along edges in two triangles or more.

The row blocks of a pass run on one thread per 4 BLOCK_BYTES of its
products, at most one per usable CPU (the affinity mask, else the CPU
count, split evenly between the worker processes of a sweep), the caller
among them.  scipy's sparse product releases the GIL, each block writes
only its own rows, and the column sums are exact integers added under a
lock, so every output is the same under any schedule.  A smaller pass,
tens of milliseconds, runs on the caller alone: on more threads its time
would depend on a second CPU being free, and its smaller blocks would cost
more page faults than the threads save.

BLOCK_BYTES caps the temporaries of each chunk of wedges or K4 candidates,
and of all the row blocks of A^2 or (A ∘ X) A in flight (with any dense row
buffer): on w > 1 threads each block gets BLOCK_BYTES / (2 w), and on the
caller alone BLOCK_BYTES.  Chunks are sized by measured bytes per item; a
chunk holds at least one item, and no kernel holds A^2.  The cap does not
cover the O(n + E) arrays a kernel keeps, returns or builds once, such as a
band's right factor, one at a time per running thread.
"""

from __future__ import annotations

import os
import threading
from functools import cached_property

import numpy as np

from .errors import CountOverflowError, InvariantError

BLOCK_BYTES = 1 << 25  # bytes of temporaries one chunk of a kernel may hold
# bytes of temporaries per item, measured with tracemalloc
_WEDGE_BYTES = 96  # a wedge being closed, or a triangle being extended
_K4_BYTES = 112  # a K4 candidate
_A2_BYTES = 32  # an entry of a row block's product with A, A^2 or (A ∘ X) A
_INT64_LIMIT = 2**62  # headroom below 2^63 for one more addition
# share of the entries past which a sort finds reverses faster than _find: measured
# between 0.07 and 0.12 on Erdos-Renyi graphs from n = 5000 to 200000
_SORT_SHARE = 0.08
_BANDS = 8  # row bands of the A^2 pass; a band's rows form only the columns from its start on


def _k2_dtype(d: np.ndarray, d2: np.ndarray):
    """Integer type for the k = 2 closed forms, from max degree D and max D^(2) M.

    Their row sums ((A^2)_ik^3, t_v^3, dc_p^2, ...) are at most 16 (M + D) D^2:
    past 2^62, CountOverflowError.  C(m, 3) and e_conf (m - 2) are at most M^3
    and 2 M^2 D: past 2^62 the per-hub combination uses Python ints.
    """
    dmax = int(d.max()) if d.size else 0
    mmax = int(d2.max()) if d2.size else 0
    if 16 * (mmax + dmax) * dmax**2 >= _INT64_LIMIT:
        raise CountOverflowError(
            f"k = 2 wheel sums could pass 2^62 (max degree {dmax}, max D2 {mmax})"
        )
    return object if max(mmax**3, 2 * mmax**2 * dmax) >= _INT64_LIMIT else np.int64


def _chunks(weights: np.ndarray, cap: int | None = None):
    """Consecutive (lo, hi) item ranges, each of total weight (bytes) at most
    cap, BLOCK_BYTES by default, unless a single item is heavier."""
    cap = max(1, BLOCK_BYTES if cap is None else cap)
    ends = np.cumsum(weights)
    lo = 0
    while lo < ends.size:
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + cap, side="right")))
        yield lo, hi
        lo = hi


_share = 1  # the processes that split this process's CPUs, set by share_cpus


def share_cpus(processes: int) -> None:
    """Give this process's A^2 passes 1/processes of its CPUs: the
    initializer of each worker process of a sweep."""
    global _share
    _share = max(1, processes)


def _workers() -> int:
    """Threads for the A^2 row-block passes: this process's share of the CPUs
    it may run on, at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // _share)


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
    off = np.arange(item.size)
    off -= (np.cumsum(counts) - counts)[item]
    return item, off


class GraphStats:
    """Cached statistics of one graph; see the module docstring."""

    def __init__(self, g):
        self.n = g.n
        self.indptr = g.indptr
        self.indices = g.indices
        self.d = g.degrees.astype(np.int64)
        self.src = np.repeat(np.arange(g.n, dtype=np.int64), self.d)  # row of each entry
        self.hub_columns: dict = {}

    @cached_property
    def d2(self) -> np.ndarray:
        """D^(2): 2-paths from each vertex, row sums of d_j - 1 over the CSR entries."""
        return row_sums(self.indptr, self.d[self.indices]) - self.d

    @cached_property
    def adjacency(self):
        """A as a scipy CSR matrix of int64 ones, built on first use from these
        arrays: a reference to the graph would make a cycle graph -> stats -> graph."""
        from scipy import sparse

        data = np.ones(self.indices.size, dtype=np.int64)
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    @cached_property
    def _keys(self) -> np.ndarray:
        return self.src * self.n + self.indices  # ascending: rows, then sorted columns

    @cached_property
    def _walks(self) -> np.ndarray:
        """Each row's bound on its entries in A^2: its 2-walks, at most n."""
        return np.minimum(self.d2 + self.d, self.n)

    def _to_reverse(self, x: np.ndarray, e: np.ndarray) -> None:
        """Add x at the CSR entries e to their reverse entries, all reads first.

        The reverses come from ``_find`` when e is at most _SORT_SHARE of the
        entries, else from one stable sort of the column indices, 16 bits a
        pass so that numpy sorts by radix: it lists the entries by (column,
        row), which is each entry's reverse (Gustavson's transposition).
        """
        if e.size > _SORT_SHARE * self.indices.size:
            rev = np.argsort(self.indices.astype(np.uint16), kind="stable")  # the low 16 bits
            for shift in range(16, max(self.n - 1, 1).bit_length(), 16):
                digit = self.indices[rev]
                digit >>= shift
                rev = rev[np.argsort(digit.astype(np.uint16), kind="stable")]
                del digit
            rev = rev[e]
        else:
            rev = self._find(self.indices[e], self.src[e])
        x[rev] += x[e]

    def _find(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """CSR position of each entry (i, j), or -1 where i and j are not adjacent."""
        q = i * self.n
        q += j
        pos = np.searchsorted(self._keys, q)
        np.minimum(pos, self._keys.size - 1, out=pos)
        pos[self._keys[pos] != q] = -1
        return pos

    @cached_property
    def _forward(self) -> tuple[np.ndarray, np.ndarray]:
        """(rank, CSR positions of the entries pointing to a higher rank)."""
        rank = np.empty(self.n, dtype=np.int64)
        rank[np.lexsort((np.arange(self.n), self.d))] = np.arange(self.n)
        return rank, np.flatnonzero(rank[self.src] < rank[self.indices])

    def _triangles(self, fwd: np.ndarray, cap: int):
        """Yield, one chunk of at most cap bytes of wedges at a time, the CSR
        positions (uv, uw, vw) of the edges of triangles {u, v, w} whose
        edges uv and uw are among the forward entries fwd, u the
        lowest-ranked vertex."""
        fsrc = self.src[fwd]
        later = np.searchsorted(fsrc, fsrc, side="right") - np.arange(fwd.size) - 1
        for lo, hi in _chunks(later * _WEDGE_BYTES, cap):
            yield self._close(fwd, lo, later[lo:hi])

    def _close(self, fwd: np.ndarray, lo: int, later: np.ndarray):
        """Pair forward entry lo + r with each of the later[r] forward entries
        after it in its row; return (uv, uw, vw) of the pairs that close."""
        # in place where possible: a wedge's temporaries are _WEDGE_BYTES
        item, off = _expand(later)
        item += lo
        uv = fwd[item]
        off += item
        off += 1
        uw = fwd[off]
        del item, off
        vw = self._find(self.indices[uv], self.indices[uw])
        hit = vw >= 0
        return uv[hit], uw[hit], vw[hit]

    @cached_property
    def edge_triangles(self) -> np.ndarray:
        """B: triangles through each CSR entry's edge, (A^2)_ij for i ~ j.

        Listed here unless ``a2_sums`` has cached it first."""
        # each triangle lists one direction of each of its edges; add the
        # counts to the reverse entries of the edges some triangle hit
        b = np.zeros(self.indices.size, dtype=np.int64)
        for tri in self._triangles(self._forward[1], BLOCK_BYTES):
            for e in tri:
                np.add.at(b, e, 1)
        self._to_reverse(b, np.flatnonzero(b))
        return b

    @cached_property
    def triangles(self) -> np.ndarray:
        """Triangles through each vertex, half the row sums of B."""
        twice = row_sums(self.indptr, self.edge_triangles)
        if np.any(twice % 2):
            raise InvariantError("per-edge triangle counts have an odd row sum")
        return twice // 2

    def clique_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per vertex i, over the ordered triangles (i, a, k): the sum of
        B_ak, the K4s through i and the sum of (d_a - 2 + B_ia)(d_k - 2).

        Wedges pair only triangle edges (B >= 1); a triangle whose edges all
        have B >= 2, as K4 edges do, is extended by its top vertex's forward
        neighbours along such edges only.
        """
        b, c = self.edge_triangles, self.d - 2
        rank, fwd = self._forward
        ext = fwd[b[fwd] >= 2]
        eptr = np.searchsorted(self.src[ext], np.arange(self.n + 1))
        opposite, k4, qe = (np.zeros(self.n, dtype=np.int64) for _ in range(3))
        half = BLOCK_BYTES // 2  # one for a chunk's triangles, one for their K4 candidates
        for uv, uw, vw in self._triangles(fwd[b[fwd] > 0], half):
            u, v, w = self.src[uv], self.indices[uv], self.indices[uw]
            for x, a, k, xa, xk, ak in ((u, v, w, uv, uw, vw), (v, u, w, uv, vw, uw),
                                        (w, u, v, uw, vw, uv)):
                np.add.at(opposite, x, 2 * b[ak])
                np.add.at(qe, x, (c[a] + b[xa]) * c[k] + (c[k] + b[xk]) * c[a])
            keep = (b[uv] >= 2) & (b[uw] >= 2) & (b[vw] >= 2)
            u, v, w = u[keep], v[keep], w[keep]
            top_w = rank[w] > rank[v]
            top, mid = np.where(top_w, w, v), np.where(top_w, v, w)
            cand = eptr[top + 1] - eptr[top]
            for lo, hi in _chunks(cand * _K4_BYTES, half):
                item, off = _expand(cand[lo:hi])
                item += lo
                x = self.indices[ext[eptr[top[item]] + off]]
                hit = (self._find(u[item], x) >= 0) & (self._find(mid[item], x) >= 0)
                for y in (u[item], mid[item], top[item], x):
                    np.add.at(k4, y[hit], 1)
        return opposite, k4, qe

    def a2_map(self, fn, entry_bytes: int, row_bytes: int = 0, left=None, bands=None) -> None:
        """Call fn(r0, r1, L @ R) once for each consecutive row block, sized for
        entry_bytes per entry plus row_bytes per row.  L = left(r0, r1), a
        matrix with the pattern of A[r0:r1], or A[r0:r1] itself (the blocks
        of A^2) if left is None.  R is A, unless bands = (edges, right): then
        the blocks also end at the edges, and R = right(r0), called under the
        pass's lock in row order and dropped once the product is formed.

        The blocks run on w threads, one per 4 BLOCK_BYTES of products and
        at most one per usable CPU, the caller among them, each taking the
        next block from one shared iterator.  For w > 1 each block gets
        BLOCK_BYTES / (2 w), so the blocks in flight hold at most half of
        BLOCK_BYTES; on the caller alone it gets BLOCK_BYTES.  fn must write
        only rows r0..r1-1 of its outputs.  The first exception stops the
        remaining blocks and is raised here, after every helper has returned.
        """
        a = self.adjacency
        weights = self._walks * entry_bytes + row_bytes
        workers = max(1, min(_workers(), int(weights.sum()) // (4 * BLOCK_BYTES)))
        spans = list(_chunks(weights, BLOCK_BYTES // (2 * workers) if workers > 1 else None))
        if bands is not None:
            bounds = np.union1d([lo for lo, _ in spans] + [self.n], bands[0]).tolist()
            spans = list(zip(bounds[:-1], bounds[1:]))
        blocks, lock = iter(spans), threading.Lock()

        def work():
            try:
                while True:
                    with lock:
                        span = next(blocks, None)
                        if span is None:
                            return
                        lo, hi = span
                        r = a if bands is None else bands[1](lo)
                    # p lives on until the next product is formed: freed first, the
                    # heap shrank and faulted back in for every block (a K = 2 fit
                    # at n = 4000, lambda = 20 took 6.0K page faults, 4.3K held)
                    p = (a[lo:hi] if left is None else left(lo, hi)) @ r
                    del r
                    fn(lo, hi, p)
            except BaseException:
                with lock:
                    spans.clear()  # the shared iterator stops at the list's new end
                raise

        helpers = min(workers, len(spans)) - 1
        if helpers <= 0:
            return work()
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(helpers) as pool:
            futures = [pool.submit(work) for _ in range(helpers)]
            work()
        for f in futures:
            f.result()

    @cached_property
    def a2_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """(s2, s3): per vertex i, the sums over k != i of (A^2)_ik^2 and
        (A^2)_ik^3, from one pass over the row blocks of A^2 after the k = 2
        int64 guard.

        The rows fall into _BANDS bands of about equal 2-walk bound, and the
        blocks end at the band edges.  A row of band [c0, c1) forms only its
        columns k >= c0: its block multiplies by A without its columns < c0,
        a right factor built once per band from A's index array over A's own
        ones, an O(E) array that BLOCK_BYTES does not cover.  So a pair
        {i, k} in two bands is formed once, in the earlier row i, and its
        powers count for i in the block's row sums and for k in its column
        sums, added after the pass.  Pairs in one band are formed in both
        rows.

        If B is not cached yet, the pass reads it as well and caches it as
        ``edge_triangles``: through a dense buffer of each block's rows when
        the 2-walk bound fills at least half of A^2, else through the
        block's elementwise product with A.  An entry left of its band takes
        B from its reverse entry after the pass.
        """
        from scipy import sparse

        _k2_dtype(self.d, self.d2)  # raises before the first block if a sum could wrap
        n, d, a, walks = self.n, self.d, self.adjacency, self._walks
        s2, s3 = -d * d, -(d**3)  # drop k = i, where (A^2)_ii = d_i
        far2, far3 = np.zeros(n, np.int64), np.zeros(n, np.int64)  # the column sums
        b = None if "edge_triangles" in self.__dict__ else np.zeros(self.indices.size, np.int64)
        total = int(walks.sum())
        # a buffered row costs n cells; the product costs about two cells per entry
        dense = b is not None and 2 * total >= n * n
        if b is not None and not dense:
            self._keys  # built once here, not by each worker's first _find
        # band j holds rows edges[j]..edges[j + 1] - 1
        cuts = np.arange(1, _BANDS) * total // _BANDS
        edges = np.r_[0, np.searchsorted(np.cumsum(walks), cuts, side="right"), n]
        held, lock = {}, threading.Lock()  # the newest band's right factor; far's lock

        def band(r):  # the band of row r: empty bands share their start with the next
            return int(np.searchsorted(edges, r, side="right")) - 1

        def right(lo):  # called in row order, so each band's factor is built once
            c0 = int(edges[band(lo)])
            if c0 and c0 not in held:
                held.clear()
                # entries (i, k), i < r, k < c0, counted as their reverses in rows < c0
                left = np.zeros(n + 1, a.indptr.dtype)
                np.cumsum(np.bincount(a.indices[: a.indptr[c0]], minlength=n), out=left[1:])
                cols = a.indices[a.indices >= c0]
                # set in place: the constructor would copy a short view of A's ones
                held[c0] = f = sparse.csr_matrix((n, n), dtype=a.dtype)
                f.indptr, f.indices, f.data = a.indptr - left, cols, a.data[: cols.size]
            return held[c0] if c0 else a

        def block(lo, hi, p):
            c1 = int(edges[band(lo) + 1])
            power = p.data * p.data
            for s, far in ((s2, far2), (s3, far3)):
                s[lo:hi] += row_sums(p.indptr, power)
                if c1 < n:  # the columns past the band: exact int64 sums, p^T times ones
                    pt = (power, p.indices, p.indptr)
                    column = sparse.csc_matrix(pt, shape=(n, hi - lo)) @ np.ones(hi - lo, np.int64)
                    del pt  # no view of power outlives it
                    with lock:
                        far[c1:] += column[c1:]
                power *= p.data
            del power
            e0, e1 = self.indptr[lo], self.indptr[hi]
            if b is not None and dense:
                b[e0:e1] = p.toarray()[self.src[e0:e1] - lo, self.indices[e0:e1]]
            elif b is not None:
                on_edges = p.multiply(a[lo:hi])  # B where it is positive
                rows = np.repeat(np.arange(lo, hi), np.diff(on_edges.indptr))
                b[self._find(rows, on_edges.indices)] = on_edges.data

        self.a2_map(block, _A2_BYTES, 8 * n if dense else 0, bands=(edges, right))
        held.clear()  # the last band's factor, before the reverse step
        s2 += far2
        s3 += far3
        if b is not None:
            # the entries right of their band carry B to their reverse, left of its band
            beyond = np.zeros(self.indices.size, dtype=bool)
            for c0, c1 in zip(edges[:-1], edges[1:]):
                e0, e1 = self.indptr[c0], self.indptr[c1]
                beyond[e0:e1] = self.indices[e0:e1] >= c1
            beyond &= b > 0
            self._to_reverse(b, np.flatnonzero(beyond))
            self.__dict__["edge_triangles"] = b
        return s2, s3

    @cached_property
    def a2_cross(self) -> np.ndarray:
        """pq: per vertex i, the sum over k of (A^2)_ik Q_ik, with Q = (A ∘ X) A
        and X_ij = d_j - 2 + B_ij.

        It reads ``a2_sums`` first, which guards int64 and caches B, and then
        forms only the row blocks of (A ∘ X) A, so any order of asking forms
        each block's A^2 and (A ∘ X) A products once.  Each entry packs
        (A^2)_ik into its low bits, below 2^shift as (A^2)_ik <= max degree,
        and Q_ik above them; no entry is dropped, as it is zero only where
        (A^2)_ik is.
        """
        from scipy import sparse

        self.a2_sums  # the int64 guard, and B
        d, b, shift = self.d, self.edge_triangles, int(self.d.max(initial=0)).bit_length()

        def packed(lo, hi):  # rows lo..hi-1 of A ∘ X, shifted, plus 1 at each entry
            e0, e1 = self.indptr[lo], self.indptr[hi]
            x = (d[self.indices[e0:e1]] - 2 + b[e0:e1]) << shift
            x += 1
            return sparse.csr_matrix((x, self.indices[e0:e1], self.indptr[lo : hi + 1] - e0),
                                     shape=(hi - lo, self.n))

        pq = np.zeros(self.n, dtype=np.int64)

        def block(lo, hi, q):
            walks = q.data & ((1 << shift) - 1)
            q.data >>= shift
            walks *= q.data
            pq[lo:hi] = row_sums(q.indptr, walks)

        self.a2_map(block, _A2_BYTES, left=packed)
        return pq
