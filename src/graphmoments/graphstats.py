"""Per-graph statistics shared by the counting kernels.

``Graph.stats`` is built once per graph and keeps only O(n + E) arrays:
degrees d, D^(2) = A d - d, per-edge triangle counts B = A^2 ∘ A aligned
with the CSR entries, triangles per vertex, the k = 2 sums over A^2 and the
memoised per-hub columns of closed-form wheel keys (filled by ``hubs``).
Only the A^2 passes build a scipy matrix (``adjacency``); the rest is numpy.

B comes from a triangle listing (Latapy, TCS 2008; Chiba & Nishizeki,
SIAM J. Comput. 1985) or from an A^2 pass.  Edges point to the endpoint of
higher (degree, id) rank, so each triangle is one wedge (u, v, w) of
forward edges at its lowest vertex.  A hashed bitmap of the edge keys
(``_edge_filter``; Bloom, CACM 1970) rejects most open wedges, and only
the rest are looked up by ``searchsorted`` in the sorted CSR keys i*n + j;
the bitmap has no false negatives, so the listing is exact.  Each count is
added to the reverse entry.  Triangle counts and D^(3) list only when no
k = 2 wheel came first.

The k = 2 sums s2, s3 over (A^2)_ik^2, (A^2)_ik^3 come from one of two
passes.  (2,2) asked first runs ``a2_sums``, which forms each pair {i, k}
of two row bands of A^2 once and reads B too if nothing cached it.  (2,3)
asked first (fits and caches ask it first, ``hubs.wheel_counts``) lists
B on sparse graphs and forms only the packed (A ∘ X) A, whose low bits
are A^2: one pass gives its cross sum pq, s2 and s3 (``a2_cross``).  So
in any key order each row block of each product is formed at most once.
(2,3)'s clique terms list again, but pair only triangle edges (B >= 1)
and extend a triangle to K4s only along edges in two triangles or more.

Each block's product is one call of scipy's compiled kernel
``_sparsetools.csr_matmat`` (``_product``), the one ``@`` calls after a
pass of its own that only counts the entries.  The output is sized by a
bound instead (Gustavson, ACM TOMS 1978; Nagasaka et al., Parallel
Comput. 2019): per row, the lengths of the right factor's rows at the
row's entries, capped at n, taken from the two factors, so no caller can
make the kernel write past it.  The product is a view of the entries
written, and the unwritten tail costs address space, not RSS.

The row blocks of a pass run on one thread per 4 BLOCK_BYTES of its
products, at most one per usable CPU (the affinity mask, else the CPU
count, split evenly between the worker processes of a sweep), the caller
among them.  The kernel releases the GIL, each block writes only its own
rows, and the column sums are exact integers added under a lock, so every
output is the same under any schedule.  A smaller pass, tens of
milliseconds, runs on the caller alone: on more threads its time would
depend on a second CPU being free, and its smaller blocks would cost more
page faults than the threads save.

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
_WEDGE_BYTES = 96  # a triangle being extended (92 on K_100), or a wedge being closed (34-57)
_K4_BYTES = 112  # a K4 candidate
_A2_BYTES = 32  # an entry of a row block's product with A, A^2 or (A ∘ X) A
_INT64_LIMIT = 2**62  # headroom below 2^63 for one more addition
# share of the entries past which a sort finds reverses faster than _find: measured
# between 0.07 and 0.12 on Erdos-Renyi graphs from n = 5000 to 200000
_SORT_SHARE = 0.08
_BANDS = 8  # row bands of the A^2 pass; a band's rows form only the columns from its start on
_FILTER_BITS = 16  # bits of the edge filter per CSR entry, before rounding up to a power of two
_HASH = 0x9E3779B97F4A7C15  # the filter's multiplier, odd: 2^64 over the golden ratio
_BIT = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))  # bit r of a byte
# forward wedges per 2-walk bound up to which (2,3) lists B: on Erdos-Renyi graphs
# listing won by 12-29 % from 0.13 to 0.27, and the two tied within 6 % from 0.24 to 0.76
_LIST_SHARE = 0.3


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


def exact_sum_dtype(values: np.ndarray, terms: int):
    """Accumulator that sums any `terms` entries of values exactly: int64
    while terms * max|value| < 2^63, else object (Python ints)."""
    fits = values.dtype.kind == "i" and terms * max(
        int(values.max(initial=0)), -int(values.min(initial=0))) < 2**63
    return np.int64 if fits else object


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


def _sparse(shape, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, format="csr"):
    """A scipy CSR (or CSC) matrix set in place: its constructor copies short views."""
    from scipy import sparse

    m = getattr(sparse, f"{format}_matrix")(shape, dtype=data.dtype)
    m.data, m.indices, m.indptr = data, indices, indptr
    return m


def _product(left, right):
    """left @ right of CSR matrices by one call of scipy's kernel into arrays sized
    by each row's bound: right's row lengths at its entries, summed, at most cols."""
    from scipy.sparse import _sparsetools, _sputils

    (rows, _), (_, cols) = left.shape, right.shape
    j = left.indices
    walks = right.indptr[j + 1] - right.indptr[j].astype(np.int64)
    total = int(np.minimum(row_sums(left.indptr, walks), cols).sum())
    factors = (left.indptr, j, right.indptr, right.indices)
    idx = _sputils.get_index_dtype(factors, maxval=total)  # theirs, unless total passes int32
    lp, lj, rp, rj = (np.asarray(x, dtype=idx) for x in factors)
    indptr, indices = np.empty(rows + 1, idx), np.empty(total, idx)
    data = np.empty(total, np.result_type(left.data, right.data))
    _sparsetools.csr_matmat(rows, cols, lp, lj, left.data, rp, rj, right.data,
                            indptr, indices, data)
    return _sparse((rows, cols), data[: indptr[-1]], indices[: indptr[-1]], indptr)


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
        self.path_splits: dict = {}  # k -> (D^(k), {r: k-paths with r vertices in N(i)})

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

    def _rows(self, lo: int, hi: int, data: np.ndarray | None = None):
        """Rows lo..hi-1 of A over views of its arrays, with data in place of its ones."""
        a = self.adjacency
        e0, e1 = a.indptr[lo], a.indptr[hi]
        return _sparse((hi - lo, self.n), a.data[e0:e1] if data is None else data,
                       a.indices[e0:e1], a.indptr[lo : hi + 1] - e0)

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
        later = np.cumsum(np.bincount(fsrc, minlength=self.n))[fsrc] - np.arange(fwd.size) - 1
        # the filter's hash of a key v * n + w is v * (n H) + w * H mod 2^64
        hw = self.indices[fwd].astype(np.uint64) * np.uint64(_HASH)
        hv = hw * np.uint64(self.n)
        for lo, hi in _chunks(later * _WEDGE_BYTES, cap):
            yield self._close(fwd, lo, later[lo:hi], hv, hw)

    @cached_property
    def _edge_filter(self) -> tuple[np.ndarray, int]:
        """(bitmap, shift): the bit (key * _HASH mod 2^64) >> shift is set for
        the key i * n + j, i < j, of each edge (Bloom, CACM 1970, one hash),
        so a clear bit proves a pair not adjacent.  _FILTER_BITS bits per CSR
        entry, rounded up to a power of two: at most 4 bytes.  Built in
        slices of at most BLOCK_BYTES of temporaries."""
        shift = 64 - max(6, (_FILTER_BITS * self.indices.size - 1).bit_length())
        bitmap = np.zeros(1 << (61 - shift), np.uint8)
        step = max(1, BLOCK_BYTES // _WEDGE_BYTES)  # a key holds less than a wedge
        for e in (slice(e0, e0 + step) for e0 in range(0, self.indices.size, step)):
            h = self._keys[e][self.src[e] < self.indices[e]].view(np.uint64) * np.uint64(_HASH)
            h = (h >> np.uint64(shift)).view(np.int64)
            np.bitwise_or.at(bitmap, h >> 3, _BIT[h & 7])
        return bitmap, shift

    def _close(self, fwd: np.ndarray, lo: int, later: np.ndarray, hv, hw):
        """Pair forward entry lo + r, (u, v), with each of the later[r] forward
        entries (u, w) after it in its row, v < w; return (uv, uw, vw) of the
        pairs that close.  Only keys v * n + w that pass ``_edge_filter`` are
        looked up: hv and hw hold each forward entry's column times n H and
        times H, mod 2^64, whose sum is the key's hash."""
        # in place where possible: a wedge's temporaries are _WEDGE_BYTES
        first, second = _expand(later)
        first += lo
        second += first
        second += 1
        bitmap, shift = self._edge_filter
        h = hv[first]
        h += hw[second]
        h = (h >> np.uint64(shift)).view(np.int64)
        passed = np.flatnonzero(bitmap[h >> 3] & _BIT[h & 7])
        del h
        uv, uw = fwd[first[passed]], fwd[second[passed]]
        del first, second, passed
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
        # chunks of BLOCK_BYTES / 8: with larger ones, which the heap kept, a K = 2 fit
        # at n = 4000 peaked 2.5 MiB above the A^2 pass that the listing replaced
        for tri in self._triangles(self._forward[1], BLOCK_BYTES // 8):
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
        """Call fn(r0, r1, L R) once for each consecutive row block, sized for
        entry_bytes per entry of its 2-walk bound plus row_bytes per row.  L =
        left(r0, r1), a matrix with the pattern of A[r0:r1], or those rows of
        A (the blocks of A^2) if left is None.  R is A, unless bands = (edges,
        right): then the blocks also end at the edges, and R = right(r0),
        called under the pass's lock in row order and dropped once L R is
        formed by ``_product``, whose own bound is at most the 2-walks.

        The blocks run on the threads and in the sizes the module describes,
        each thread taking the next block from one shared iterator.  fn must
        write only rows r0..r1-1 of its outputs.  The first exception stops the
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
                    p = _product(self._rows(lo, hi) if left is None else left(lo, hi), r)
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

        When (2,3) comes first on a sparse graph, ``a2_cross`` caches s2 and
        s3 from its own pass instead, and this one never runs.
        """
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
                held[c0] = _sparse((n, n), a.data[: cols.size], cols, a.indptr - left)
            return held[c0] if c0 else a

        def block(lo, hi, p):
            c1 = int(edges[band(lo) + 1])
            power = p.data * p.data
            for s, far in ((s2, far2), (s3, far3)):
                s[lo:hi] += row_sums(p.indptr, power)
                if c1 < n:  # the columns past the band: exact int64 sums, p^T times ones
                    pt = _sparse((n, hi - lo), power, p.indices, p.indptr, "csc")
                    column = pt @ np.ones(hi - lo, np.int64)
                    del pt  # no view of power outlives it
                    with lock:
                        far[c1:] += column[c1:]
                power *= p.data
            del power
            e0, e1 = self.indptr[lo], self.indptr[hi]
            if b is not None and dense:
                b[e0:e1] = p.toarray()[self.src[e0:e1] - lo, self.indices[e0:e1]]
            elif b is not None:
                # A's rows first: scipy rebuilds the second factor, copying short views
                on_edges = self._rows(lo, hi).multiply(p)  # B where it is positive
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
        and X_ij = d_j - 2 + B_ij, from one pass over the row blocks of the
        packed (A ∘ X) A after the k = 2 int64 guard.

        Each entry packs (A^2)_ik into its low bits, below 2^shift as (A^2)_ik
        <= max degree, and Q_ik above them; no entry is dropped, as it is zero
        only where (A^2)_ik is.  If ``a2_sums`` is not cached and either B is
        or the forward wedges, sum C(out, 2), are at most _LIST_SHARE of the
        2-walk bound, B is listed if need be and the pass also reads s2 and
        s3 off the low bits and caches them as ``a2_sums``: no A^2 block is
        formed.  Otherwise ``a2_sums`` gives B first, banded as for (2,2).
        """
        _k2_dtype(self.d, self.d2)  # raises before any listing or block
        sums = "a2_sums" not in self.__dict__
        if sums and "edge_triangles" not in self.__dict__:
            out = np.bincount(self.src[self._forward[1]], minlength=self.n)  # forward degrees
            sums = int((out * (out - 1) // 2).sum()) <= _LIST_SHARE * int(self._walks.sum())
        if not sums:
            self.a2_sums  # B with s2 and s3, through the banded pass
        d, b, shift = self.d, self.edge_triangles, int(self.d.max(initial=0)).bit_length()

        def packed(lo, hi):  # rows lo..hi-1 of A ∘ X, shifted, plus 1 at each entry
            e0, e1 = self.indptr[lo], self.indptr[hi]
            x = (d[self.indices[e0:e1]] - 2 + b[e0:e1]) << shift
            x += 1
            return self._rows(lo, hi, x)

        pq = np.zeros(self.n, dtype=np.int64)
        s2, s3 = -d * d, -(d**3)  # drop k = i, where (A^2)_ii = d_i

        def block(lo, hi, q):  # the powers in place in q.data: no other per-entry array
            walks = q.data & ((1 << shift) - 1)
            q.data >>= shift
            q.data *= walks
            pq[lo:hi] = row_sums(q.indptr, q.data)
            if sums:
                np.multiply(walks, walks, out=q.data)
                s2[lo:hi] += row_sums(q.indptr, q.data)
                q.data *= walks
                s3[lo:hi] += row_sums(q.indptr, q.data)

        self.a2_map(block, _A2_BYTES, left=packed)
        if sums:
            self.__dict__["a2_sums"] = s2, s3
        return pq
