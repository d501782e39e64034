"""The per-graph statistics layer and the k = 2 wheel kernels built on it."""

import gc
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphmoments import (
    BlockModel,
    BudgetExceededError,
    CountOverflowError,
    FitConfig,
    Graph,
    HubCountCache,
    WheelSpec,
    fit_block_model,
    m_degrees,
    sample_block_model,
    wheel_counts_per_hub,
)
from graphmoments import graphstats, hubs
from graphmoments.counting import triangle_count, triangles_per_vertex
from oracles import (
    dense_adj,
    oracle_clique_terms,
    oracle_edge_triangles,
    oracle_hub_count,
    oracle_mdegree,
    oracle_triangles_at,
)

K22, K23 = WheelSpec.simple(2, 2), WheelSpec.simple(2, 3)


@st.composite
def graphs(draw, kinds=("star", "bipartite", "clique_paths", "gnp"), clique=(1, 6)):
    """Stars, K_{a,b}, cliques of clique[0]..clique[1] vertices with pendant
    paths and G(n, p), relabelled."""
    kind = draw(st.sampled_from(kinds))
    if kind == "star":
        n = draw(st.integers(1, 13))
        edges = [(0, i) for i in range(1, n)]
    elif kind == "bipartite":
        a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        n = a + b
        edges = [(i, a + j) for i in range(a) for j in range(b)]
    elif kind == "clique_paths":
        n = draw(st.integers(*clique))
        edges = list(combinations(range(n), 2))
        for length in draw(st.lists(st.integers(1, 3), max_size=3)):
            prev = draw(st.integers(0, n - 1))
            for _ in range(length):
                edges.append((prev, n))
                prev, n = n, n + 1
    else:
        n = draw(st.integers(1, 10))
        pairs = list(combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [e for e, k in zip(pairs, keep) if k]
    perm = draw(st.permutations(range(n)))
    e = np.array([(perm[u], perm[v]) for u, v in edges], dtype=np.int64).reshape(-1, 2)
    return Graph.from_edges(e, n)


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_triangles_and_third_degrees_match_oracles(g):
    a = dense_adj(g)
    tri = [oracle_triangles_at(a, i) for i in range(g.n)]
    assert triangles_per_vertex(g).tolist() == tri
    assert triangle_count(g) == sum(tri) // 3
    assert m_degrees(g, 3).counts[:, 2].tolist() == [oracle_mdegree(a, i, 3) for i in range(g.n)]


@settings(max_examples=40, deadline=None)
@given(graphs(), st.sampled_from([5, 6]))
def test_searched_degrees_match_oracle(g, m):
    a = dense_adj(g)
    counts = m_degrees(g, m, budget=None).counts
    for j in range(4, m + 1):
        assert counts[:, j - 1].tolist() == [oracle_mdegree(a, i, j) for i in range(g.n)], j


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_k2_wheels_match_oracle(g):
    a = dense_adj(g)
    for spec in (K22, K23):
        got = wheel_counts_per_hub(g, spec)
        assert [int(c) for c in got] == [oracle_hub_count(a, spec, i) for i in range(g.n)], spec


@settings(max_examples=80, deadline=None)
@given(graphs(), st.sampled_from([2, 3]), st.integers(1, 4))
def test_mixed_wheels_match_oracle(g, k, l):
    # one k-spoke and l 1-spokes, in either spoke order
    a = dense_adj(g)
    for spec in (WheelSpec((1, k), (l, 1)), WheelSpec((k, 1), (1, l))):
        assert hubs.has_closed_form(spec)
        got = wheel_counts_per_hub(g, spec)
        assert [int(c) for c in got] == [oracle_hub_count(a, spec, i) for i in range(g.n)], spec


@settings(max_examples=80, deadline=None)
@given(st.one_of(graphs(), graphs(["clique_paths"], (5, 7))), st.booleans(),
       st.sampled_from([None, 1]))
def test_clique_terms_match_oracle(g, b_cached, filter_bits):
    # K5-K7 with pendant paths give many K4s next to edges in no triangle,
    # which the listing must skip; G(n, p) adds edges in exactly one triangle.
    # One filter bit per CSR entry lets many open wedges through to the search
    a = dense_adj(g)
    with pytest.MonkeyPatch.context() as mp:
        if filter_bits is not None:
            mp.setattr(graphstats, "_FILTER_BITS", filter_bits)
        if b_cached:
            g.stats.a2_sums  # the pass caches B, so the listing pairs only triangle edges
        got = zip(*(column.tolist() for column in g.stats.clique_terms()))
    assert list(got) == [oracle_clique_terms(a, i) for i in range(g.n)]


@settings(max_examples=80, deadline=None)
@given(graphs(), st.sampled_from([None, 1]), st.sampled_from([None, 1]))
def test_listed_b_matches_oracle_before_any_a2_pass(g, block_bytes, filter_bits):
    # B from the triangle listing alone: each entry's reverse is marked where a
    # triangle hit, with the default edge filter or one bit per CSR entry
    a = dense_adj(g)
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes is not None:
            mp.setattr(graphstats, "BLOCK_BYTES", block_bytes)
        if filter_bits is not None:
            mp.setattr(graphstats, "_FILTER_BITS", filter_bits)
        b = g.stats.edge_triangles
    assert "a2_sums" not in g.stats.__dict__
    want = [oracle_edge_triangles(a, i, j) for i in range(g.n) for j in g.neighbors(i)]
    assert b.tolist() == want


@settings(max_examples=60, deadline=None)
@given(graphs(), st.sampled_from([0.0, 1.0]), st.booleans())
def test_b_matches_oracle_on_both_sides_of_the_sort_crossover(g, share, from_pass):
    # share 0 sorts for any reverse step, share 1 looks every entry up; B from
    # the listing adds each count to its reverse, B from the A^2 pass copies
    # the entries right of their band to their reverse, left of its band
    a = dense_adj(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphstats, "_SORT_SHARE", share)
        if from_pass:
            g.stats.a2_sums
        b = g.stats.edge_triangles
    assert ("a2_sums" in g.stats.__dict__) == from_pass
    want = [oracle_edge_triangles(a, i, j) for i in range(g.n) for j in g.neighbors(i)]
    assert b.tolist() == want


def test_reverse_sort_takes_a_second_pass_past_16_bit_vertex_ids(monkeypatch):
    # ids past 2^16 sort in two 16-bit passes; renaming v to 2^14 v keeps the
    # CSR entry order, so B stays the small graph's, entry for entry
    monkeypatch.setattr(graphstats, "_SORT_SHARE", 0.0)
    small = Graph.from_edges(list(combinations(range(5), 2)) + [(4, 5), (5, 6), (6, 4), (6, 7)])
    want = small.stats.edge_triangles.tolist()
    for from_pass in (False, True):
        g = _spread(small, 2**17, 2**14)
        if from_pass:
            g.stats.a2_sums
        assert g.stats.edge_triangles.tolist() == want


def _fresh(g: Graph) -> Graph:
    return Graph(n=g.n, indptr=g.indptr.copy(), indices=g.indices.copy())


def _outputs(g: Graph, first: str) -> list:
    """B, triangles, the (2,2) and (2,3) columns and D^(3), asking for (2,2)
    first (B from the A^2 pass) or the triangle count first (B from the listing)."""
    if first == "k22":
        wheel_counts_per_hub(g, K22)
    else:
        triangle_count(g)
    return [
        g.stats.edge_triangles.tolist(),
        triangles_per_vertex(g).tolist(),
        wheel_counts_per_hub(g, K22).tolist(),
        wheel_counts_per_hub(g, K23).tolist(),
        m_degrees(g, 3).counts.tolist(),
    ]


def _spread(g: Graph, n: int, stride: int = 1) -> Graph:
    """g on n >= stride * g.n vertices, vertex v renamed stride * v: the rest
    are isolated, and the CSR entries keep their order."""
    return Graph.from_edges(g.edges() * stride, n)


_K5 = Graph.from_edges(list(combinations(range(5), 2)))


@settings(max_examples=60, deadline=None)
@given(graphs(), st.sampled_from([None, 1, 700]))
# no vertex, one, one edge; K5 alone and among isolated vertices, fewer rows than bands
@example(Graph.from_edges(np.zeros((0, 2), np.int64), 0), None)
@example(Graph.from_edges(np.zeros((0, 2), np.int64), 1), None)
@example(Graph.from_edges([(0, 1)]), None)
@example(_K5, 700)
@example(_spread(_K5, 20, 3), 700)
def test_b_from_the_a2_pass_matches_the_listing(g, block_bytes):
    # blocks by size: every row at once, one row each, and two or three rows,
    # so that the pass cuts blocks at band edges inside them
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes is not None:
            mp.setattr(graphstats, "BLOCK_BYTES", block_bytes)
        assert _outputs(_fresh(g), "k22") == _outputs(_fresh(g), "triangles")


def _dense_sums(a: np.ndarray) -> list:
    """s2, s3, B (in CSR order) and pq from the dense adjacency a."""
    a = a.astype(np.int64)
    a2 = a @ a
    off = a2 - np.diag(np.diag(a2))
    x = a * (a.sum(axis=1)[None, :] - 2 + a2)  # X_ij = d_j - 2 + B_ij on the edges
    return [(off**2).sum(axis=1), (off**3).sum(axis=1), a2[a > 0], (a2 * (x @ a)).sum(axis=1)]


@settings(max_examples=60, deadline=None)
@given(graphs())
@example(Graph.from_edges(np.zeros((0, 2), np.int64), 0))
@example(Graph.from_edges([(0, 1)]))
@example(_spread(_K5, 20, 3))
def test_a2_sums_and_cross_match_on_both_sides_of_the_list_share(g):
    # (2,3) first: share 0 takes B and s2, s3 from the banded A^2 pass (unless
    # there is no wedge), share inf lists B and reads s2, s3 off the packed pass
    want = [x.tolist() for x in _dense_sums(dense_adj(g))]
    routes = set()
    for share in (0.0, np.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphstats, "_LIST_SHARE", share)
            st_ = _fresh(g).stats
            pq = st_.a2_cross
            got = [*st_.a2_sums, st_.edge_triangles, pq]
        assert [x.tolist() for x in got] == want, share
        routes.add(tuple(x.dtype.str + x.tobytes().hex() for x in got))
    assert len(routes) == 1  # bit-identical


def _a2_spans(g: Graph) -> list:
    """The row ranges of the A^2 blocks a pass over g forms, in row order."""
    spans = []
    g.stats.a2_map(lambda r0, r1, p: spans.append((r0, r1)), 1)
    return sorted(spans)


def test_one_row_blocks_match_a_single_block(monkeypatch):
    rng = np.random.default_rng(3)
    # the first two read B through the dense row buffer, the last through A's product
    for n, p in ((60, 0.15), (40, 0.5), (80, 0.05)):
        a = np.triu(rng.random((n, n)) < p, 1)
        g = Graph.from_edges(np.argwhere(a), n)
        monkeypatch.setattr(graphstats, "BLOCK_BYTES", 1 << 40)
        single = _fresh(g)
        assert _a2_spans(single) == [(0, n)]
        want = _outputs(single, "k22")
        assert _outputs(_fresh(g), "triangles") == want
        monkeypatch.setattr(graphstats, "BLOCK_BYTES", 1)
        assert _a2_spans(_fresh(g)) == [(i, i + 1) for i in range(n)]
        for first in ("k22", "triangles"):
            assert _outputs(_fresh(g), first) == want


def _record_a2_blocks_and_listings(monkeypatch) -> tuple[list, list, list]:
    """Record the row range of every A^2 block and of every (A ∘ X) A block
    formed and, for every wedge listing, whether it paired only triangle
    edges (B cached and positive).  Blocks are capped at 256 KiB in all, so
    every graph below takes several."""
    blocks, crosses, listings = [], [], []
    a2_map, listing = graphstats.GraphStats.a2_map, graphstats.GraphStats._triangles

    def counting_map(self, fn, entry_bytes, row_bytes=0, left=None, bands=None):
        formed = blocks if left is None else crosses

        def counted(r0, r1, p):
            formed.append((r0, r1))
            fn(r0, r1, p)

        a2_map(self, counted, entry_bytes, row_bytes, left, bands)

    def counting_listing(self, fwd, cap):
        b = self.__dict__.get("edge_triangles")
        listings.append(b is not None and bool(np.all(b[fwd] > 0)))
        return listing(self, fwd, cap)

    monkeypatch.setattr(graphstats.GraphStats, "a2_map", counting_map)
    monkeypatch.setattr(graphstats.GraphStats, "_triangles", counting_listing)
    monkeypatch.setattr(graphstats, "BLOCK_BYTES", 1 << 18)
    return blocks, crosses, listings


def _each_row_once(blocks: list, n: int) -> bool:
    """Whether more than one block was formed and their row ranges, in any
    order of forming, tile 0..n once."""
    spans = sorted(blocks)
    starts = [r0 for r0, _ in spans]
    return len(spans) > 1 and starts == [0] + [r1 for _, r1 in spans[:-1]] and spans[-1][1] == n


def test_k22_first_forms_each_a2_block_once_and_lists_no_triangles(monkeypatch):
    blocks, crosses, listings = _record_a2_blocks_and_listings(monkeypatch)
    rng = np.random.default_rng(12)
    for n, p in ((300, 0.3), (2000, 0.003)):  # dense row buffer, product with A
        g = Graph.from_edges(np.argwhere(np.triu(rng.random((n, n)) < p, 1)), n)
        blocks.clear()
        wheel_counts_per_hub(g, K22)
        triangle_count(g)
        m_degrees(g, 3)
        assert listings == [] and crosses == []
        assert _each_row_once(blocks, n)


def test_k2_fit_forms_each_a2_block_once_and_lists_only_triangle_edges(monkeypatch):
    blocks, crosses, listings = _record_a2_blocks_and_listings(monkeypatch)
    cfg = FitConfig(K=2)
    # each order of asking, with, at lambda = 6 (forward wedges 0.09 of the
    # 2-walk bound) and at lambda = 90 (3.6): whether it forms the banded A^2
    # blocks, and the wedge listings it runs.  A full listing pairs every
    # forward edge, a clique-term listing only triangle edges.  (2,3) lists B
    # at lambda = 6 and reads the A^2 pass at lambda = 90, unless (2,2) ran
    # that pass first or a triangle count listed B
    full, terms = False, True
    one_pass, banded = (False, [full, terms]), (True, [terms])
    orders = {
        "(2,2), (2,3)": (lambda h: [wheel_counts_per_hub(h, k) for k in (K22, K23)],
                         banded, banded),
        "(2,3), (2,2)": (lambda h: [wheel_counts_per_hub(h, k) for k in (K23, K22)],
                         one_pass, banded),
        "triangles, (2,3)": (lambda h: (triangle_count(h), wheel_counts_per_hub(h, K23)),
                             one_pass, one_pass),
        "fit": (lambda h: fit_block_model(h, cfg), one_pass, banded),
        "cache": (lambda h: HubCountCache.build(h, cfg.keys()), one_pass, banded),
        # a bootstrap and a fit on one Graph share its counts: the cache, then the fit
        "cache, fit": (lambda h: (HubCountCache.build(h, cfg.keys()), fit_block_model(h, cfg)),
                       one_pass, banded),
    }
    for n, lam in ((2000, 6.0), (300, 90.0)):  # product with A, dense row buffer
        model = BlockModel(pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]),
                           rho=lam / (n - 1))
        g = sample_block_model(model, n, seed=5).graph
        columns: dict = {}  # the distinct per-hub columns of each key over the orders
        for name, (run, *routes) in orders.items():
            forms_a2, listed = routes[lam > 10]
            blocks.clear()
            crosses.clear()
            listings.clear()
            h = _fresh(g)
            run(h)
            assert (_each_row_once(blocks, n) if forms_a2 else blocks == []), (n, name)
            assert _each_row_once(crosses, n), (n, name)
            assert listings == listed, (n, name)
            for key in set(h.stats.hub_columns) & {K22, K23}:
                col = h.stats.hub_columns[key]
                columns.setdefault(key, set()).add((col.dtype.str, col.tobytes()))
        # bit-identical per-hub columns in every order
        assert {key: len(cols) for key, cols in columns.items()} == {K22: 1, K23: 1}, n


def test_the_edge_filter_leaves_few_wedges_to_the_search(monkeypatch):
    # on G(2000, 0.003) about 1 wedge in 200 closes, and one hash over 32 to 64
    # bits per edge lets a few % of the others through; the rest never reach _find
    searched, closing = [], []
    find, close = graphstats.GraphStats._find, graphstats.GraphStats._close

    def counting_find(self, i, j):
        if closing:
            searched.append(i.size)
        return find(self, i, j)

    def counting_close(self, *args):
        closing.append(True)
        try:
            return close(self, *args)
        finally:
            closing.pop()

    monkeypatch.setattr(graphstats.GraphStats, "_find", counting_find)
    monkeypatch.setattr(graphstats.GraphStats, "_close", counting_close)
    rng = np.random.default_rng(34)
    g = Graph.from_edges(np.argwhere(np.triu(rng.random((2000, 2000)) < 0.003, 1)), 2000)
    triangles = triangle_count(g)
    out = np.bincount(g.stats.src[g.stats._forward[1]], minlength=g.n)
    wedges = int((out * (out - 1) // 2).sum())
    assert wedges > 5000 and triangles <= sum(searched) <= 0.1 * wedges
    assert g.stats._edge_filter[0].nbytes <= 4 * g.indices.size


def _a2_outputs(g: Graph) -> list:
    """s2, s3, B and pq of fresh copies of g, as bytes, with the sums asked
    first (the banded pass) and with pq asked first (on a sparse graph, the
    packed pass alone)."""
    out = []
    for first in ("a2_sums", "a2_cross"):
        st_ = _fresh(g).stats
        getattr(st_, first)
        out += [x.tobytes() for x in (*st_.a2_sums, st_.edge_triangles, st_.a2_cross)]
    return out


def test_concurrent_blocks_match_one_worker(monkeypatch):
    rng = np.random.default_rng(30)
    # dense row buffer, product with A; a2_cross on both
    shapes = [(300, 0.3), (2000, 0.003)]
    graphs = [Graph.from_edges(np.argwhere(np.triu(rng.random((n, n)) < p, 1)), n)
              for n, p in shapes]
    # no vertex, one, one edge, fewer rows than bands, and a dense graph on
    # every other row, among as many isolated vertices
    dense = np.argwhere(np.triu(rng.random((150, 150)) < 0.3, 1))
    graphs += [Graph.from_edges(np.zeros((0, 2), np.int64), n) for n in (0, 1)]
    graphs += [Graph.from_edges([(0, 1)]), _K5, _spread(Graph.from_edges(dense, 150), 300, 2)]
    # one block of every row by size, so the pass cuts it at every band edge
    monkeypatch.setattr(graphstats, "BLOCK_BYTES", 1 << 40)
    monkeypatch.setattr(graphstats, "_workers", lambda: 1)
    want = [_a2_outputs(g) for g in graphs]
    # one worker in blocks of one row; more workers than CPUs, switching
    # threads often; then two workers in blocks of a few rows, which the
    # sizer alone would run across band edges
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers, block_bytes, rounds in ((1, 1 << 14, 1), (6, 1 << 14, 3), (2, 1 << 17, 1)):
            monkeypatch.setattr(graphstats, "_workers", lambda: workers)
            monkeypatch.setattr(graphstats, "BLOCK_BYTES", block_bytes)
            for _ in range(rounds):
                assert [_a2_outputs(g) for g in graphs] == want, workers
    finally:
        sys.setswitchinterval(interval)


def test_the_banded_pass_forms_about_half_of_a2(monkeypatch):
    # on a dense G(n, p), rows of band j form the columns from the band's start
    # on: (b + 1) / (2 b) of A^2 over b equal bands, plus one band's width of
    # rows for bands of unequal size
    monkeypatch.setattr(graphstats, "_workers", lambda: 1)
    monkeypatch.setattr(graphstats, "BLOCK_BYTES", 1 << 16)  # a few rows per block
    rng = np.random.default_rng(31)
    n, b = 400, graphstats._BANDS
    g = Graph.from_edges(np.argwhere(np.triu(rng.random((n, n)) < 0.5, 1)), n)
    full, banded = [], []
    g.stats.a2_map(lambda r0, r1, p: full.append(p.nnz), 1)
    a2_map = graphstats.GraphStats.a2_map

    def counting_map(self, fn, entry_bytes, row_bytes=0, left=None, bands=None):
        def counted(r0, r1, p):
            banded.append(p.nnz)
            fn(r0, r1, p)

        a2_map(self, counted, entry_bytes, row_bytes, left, bands)

    monkeypatch.setattr(graphstats.GraphStats, "a2_map", counting_map)
    g.stats.a2_sums
    assert sum(full) == n * n and len(banded) > b
    assert sum(banded) <= sum(full) * (b + 1) / (2 * b) + n * -(-n // b)


@st.composite
def csr_factors(draw):
    """(left, right): int64 CSR matrices of shapes (r, k) and (k, c), each
    dimension 0..6, with empty rows, stored zeros and sums that cancel."""
    from scipy import sparse

    r, k, c = (draw(st.integers(0, 6)) for _ in range(3))

    def matrix(rows, cols):
        cells = rows * cols
        mask = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)), bool)
        i, j = np.nonzero(mask.reshape(rows, cols))
        x = draw(st.lists(st.integers(-2, 2), min_size=i.size, max_size=i.size))
        indptr = np.searchsorted(i, np.arange(rows + 1))
        return sparse.csr_matrix((np.array(x, np.int64), j, indptr), shape=(rows, cols))

    return matrix(r, k), matrix(k, c)


def _same_product(got, left, right) -> None:
    """got equals scipy's left @ right, array for array and value for value."""
    want = left @ right
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.tolist() == y.tolist(), name


@settings(max_examples=200, deadline=None)
@given(csr_factors())
def test_the_product_is_scipys(factors):
    # the private kernel's contract: its one pass gives what @'s two do
    _same_product(graphstats._product(*factors), *factors)


def test_the_passes_form_what_scipys_product_forms(monkeypatch):
    # every block of both passes: A's rows by A and by a band's right factor
    # (fewer entries than A), and the packed rows of A ∘ X (entries past 1) by A
    product, kinds, entries = graphstats._product, set(), [0]

    def checked(left, right, first=0):
        got = product(left, right, first)
        _same_product(got, left, right)
        kinds.add((bool(left.data.max(initial=1) > 1), right.nnz < entries[0]))
        return got

    monkeypatch.setattr(graphstats, "_product", checked)
    monkeypatch.setattr(graphstats, "BLOCK_BYTES", 1 << 12)  # a few rows per block
    rng = np.random.default_rng(32)
    graphs = [Graph.from_edges(np.argwhere(np.triu(rng.random((n, n)) < p, 1)), n)
              for n, p in ((60, 0.3), (200, 0.02))]
    # no vertex, one, one edge and K5 among isolated vertices
    graphs += [Graph.from_edges(np.zeros((0, 2), np.int64), n) for n in (0, 1)]
    graphs += [Graph.from_edges([(0, 1)]), _spread(_K5, 20, 3)]
    for g in graphs:
        entries[0] = g.indices.size
        g.stats.a2_sums, g.stats.a2_cross
    assert kinds == {(False, False), (False, True), (True, False)}


def test_no_pass_counts_a_products_entries_first(monkeypatch):
    # the one-pass product: scipy's counting pass, which @ runs, never runs
    from scipy.sparse import _compressed, _sparsetools

    def maxnnz(*args):
        raise AssertionError("csr_matmat_maxnnz ran")

    for module in (_sparsetools, _compressed):
        monkeypatch.setattr(module, "csr_matmat_maxnnz", maxnnz)
    rng = np.random.default_rng(33)
    # the dense row buffer, then the product with A, then a K = 2 fit
    for n, p in ((200, 0.3), (1000, 0.01)):
        stats = Graph.from_edges(np.argwhere(np.triu(rng.random((n, n)) < p, 1)), n).stats
        stats.a2_sums, stats.a2_cross
    model = BlockModel(pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]),
                       rho=10 / 999)
    fit_block_model(sample_block_model(model, 1000, seed=7).graph, FitConfig(K=2))
    with pytest.raises(AssertionError, match="maxnnz ran"):  # as it does in @
        stats.adjacency @ stats.adjacency


def test_a_helpers_exception_reaches_the_caller_after_every_helper_ends(monkeypatch):
    monkeypatch.setattr(graphstats, "_workers", lambda: 4)
    monkeypatch.setattr(graphstats, "BLOCK_BYTES", 1)  # one row per block
    g = Graph.from_edges(list(combinations(range(12), 2)))
    caller, raised = threading.get_ident(), threading.Event()

    def fn(r0, r1, p):
        if threading.get_ident() == caller:
            assert raised.wait(10), "no helper took a block"
        else:
            raised.set()
            raise RuntimeError("helper failed")

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="helper failed"):
        g.stats.a2_map(fn, 1)
    assert threading.active_count() == before


def test_a_pass_runs_on_every_cpu_up_to_one_thread_per_block(monkeypatch):
    g = Graph.from_edges(list(combinations(range(20), 2)))
    # K20: every row's 2-walk bound is n, so each row holds 20 one-byte entries;
    # on w > 1 CPUs a block gets BLOCK_BYTES / (2 w).  Band edges every 5 rows cut
    # a pass of one block into 4, which still runs on the caller alone.
    a, edges = g.stats.adjacency, np.arange(0, 21, 5)
    for cpus, block_bytes, rows, want, bands in (
        (4, 1 << 20, 20, 1, None), (4, 8 * 200, 10, 2, None), (4, 8 * 20, 1, 4, None),
        (1, 200, 10, 1, None), (4, 1 << 20, 5, 1, (edges, lambda r0: (a, 0))),
    ):
        monkeypatch.setattr(graphstats, "_workers", lambda: cpus)
        monkeypatch.setattr(graphstats, "BLOCK_BYTES", block_bytes)
        spans, threads = [], set()
        # each block waits for blocks on want - 1 other threads: fewer threads time out
        together = threading.Barrier(want, timeout=10)

        def fn(r0, r1, p):
            spans.append((r0, r1))
            threads.add(threading.get_ident())
            together.wait()

        g.stats.a2_map(fn, 1, bands=bands)
        assert sorted(spans) == [(r, r + rows) for r in range(0, 20, rows)], block_bytes
        assert len(threads) == want, block_bytes
        if want == 1:
            assert threads == {threading.get_ident()}


def test_a_k2_fit_is_the_same_on_one_two_and_four_cpus(monkeypatch):
    # fit-k2's size at the default BLOCK_BYTES: the fit's (A ∘ X) A pass holds
    # about 55 MiB of products, several blocks on two CPUs or more
    model = BlockModel(pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]),
                       rho=20 / 3999)
    g = sample_block_model(model, 4000, seed=24).graph
    product, threads, second = graphstats._product, set(), threading.Event()

    def traced(*args):  # on more CPUs, the first block waits for a second thread's
        threads.add(threading.get_ident())
        if len(threads) > 1:
            second.set()
        elif cpus > 1:
            second.wait(10)
        return product(*args)

    monkeypatch.setattr(graphstats, "_product", traced)
    fits = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(graphstats, "_workers", lambda: cpus)
        threads.clear()
        second.clear()
        h = _fresh(g)
        res = fit_block_model(h, FitConfig(K=2))
        fits.append((res.pi.tobytes(), res.S.tobytes(), res.residual,
                     wheel_counts_per_hub(h, K23).tobytes()))
        assert len(threads) > 1 if cpus > 1 else threads == {threading.get_ident()}, cpus
    assert fits[1] == fits[0] and fits[2] == fits[0]


def test_passes_stay_within_a_sweep_workers_share_of_the_cpus(monkeypatch):
    # 8 usable CPUs, split between the worker processes of a sweep
    monkeypatch.setattr(graphstats.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    monkeypatch.setattr(graphstats, "_share", 1)  # restored after the test
    monkeypatch.setattr(graphstats, "BLOCK_BYTES", 1)  # one row per block: a thread per CPU
    g = Graph.from_edges(list(combinations(range(20), 2)))
    for processes, most in ((1, 8), (3, 2), (8, 1), (16, 1)):
        graphstats.share_cpus(processes)
        threads = set()
        g.stats.a2_map(lambda r0, r1, p: threads.add(threading.get_ident()), 1)
        assert graphstats._workers() == most and len(threads) <= most, processes


def _traced_peak(fn) -> int:
    """Peak traced bytes allocated during fn() above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _warm(g: Graph) -> Graph:
    """A fresh copy with the O(n + E) arrays every kernel shares already built."""
    h = _fresh(g)
    h.stats.d2, h.stats._keys, h.stats._forward
    return h


@pytest.mark.parametrize(
    "block_bytes, shapes",
    [
        # G(1500, 0.06) reads B through the dense row buffer, G(20000, 0.0005) through A's product
        (graphstats.BLOCK_BYTES, [(1500, 0.06), (20000, 0.0005)]),
        (1 << 20, [(400, 0.25), (100, 1.0), (3000, 0.002)]),
    ],
)
def test_kernels_keep_their_temporaries_under_block_bytes(monkeypatch, block_bytes, shapes):
    monkeypatch.setattr(graphstats, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(21)
    for n, p in shapes:
        a = np.triu(rng.random((n, n)) < p, 1)
        g = Graph.from_edges(np.argwhere(a), n)
        linear = 8 * (g.n + g.indices.size)  # one int64 array per vertex and per CSR entry

        listed = _warm(g)
        peaks = {"listing": (_traced_peak(lambda: listed.stats.edge_triangles), 4)}
        peaks["K4"] = (_traced_peak(listed.stats.clique_terms), 4)
        passed = _warm(g)
        peaks["pass"] = (_traced_peak(lambda: passed.stats.a2_sums), 4)
        passed.stats.triangles
        # after the A^2 pass, (2,3) forms only (A ∘ X) A blocks and builds its per-entry sums
        peaks["(2,3)"] = (_traced_peak(lambda: wheel_counts_per_hub(passed, K23)), 10)
        crossed = _warm(g)
        # (2,3) first runs the A^2 pass, reading B through the dense row buffer or A's product
        peaks["(2,3) first"] = (_traced_peak(lambda: wheel_counts_per_hub(crossed, K23)), 10)
        for kernel, (peak, outputs) in peaks.items():
            assert peak - outputs * linear <= block_bytes, (n, p, kernel, peak)


def test_k2_guard_raises_before_any_a2_block(monkeypatch):
    def no_blocks(self, *args, **kwargs):
        raise AssertionError("an A^2 row block was formed")

    def no_listing(self, *args, **kwargs):
        raise AssertionError("a wedge listing ran")

    monkeypatch.setattr(graphstats.GraphStats, "a2_map", no_blocks)
    monkeypatch.setattr(graphstats.GraphStats, "_triangles", no_listing)
    leaves = 2**19 + 1
    star = Graph.from_edges(np.column_stack([np.zeros(leaves, np.int64), np.arange(1, leaves + 1)]),
                            leaves + 1)
    for spec in (K22, K23):
        t0 = time.perf_counter()
        with pytest.raises(CountOverflowError):
            wheel_counts_per_hub(star, spec)
        assert time.perf_counter() - t0 < 1.0
    # one leaf fewer sits just under the bound, where A^2 has 2.7e11 entries
    d = np.r_[2**19, np.ones(2**19, np.int64)]
    assert hubs._k2_dtype(d, np.r_[0, np.full(2**19, 2**19 - 1)]) is np.int64


def test_stats_hold_no_reference_back_to_their_graph():
    # a cycle graph -> stats -> graph would leave a dropped graph's arrays to
    # the cyclic collector; with it off, the graph must die with its last name
    g = Graph.from_edges(list(combinations(range(5), 2)) + [(4, 5)])
    g.stats.d2, g.stats.triangles, g.stats.adjacency
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_d3_int64_guard_decision():
    # A (A (d-1)) is at most D^3; 1664510^3 < 2^62 <= 1664511^3
    g = Graph.from_edges([(0, 1), (1, 2)])
    for dmax, raises in ((1664510, False), (1664511, True)):
        g.stats.d = np.array([1, dmax, 1])  # synthetic degrees: only the bound is read
        if raises:
            with pytest.raises(CountOverflowError, match="2\\^62"):
                m_degrees(g, 3)
        else:
            m_degrees(g, 3)


def test_k2_int64_guard_decision():
    small_d, small_d2 = np.array([3, 3, 2, 1]), np.array([4, 4, 5, 2])
    assert hubs._k2_dtype(small_d, small_d2) is np.int64
    assert hubs._k2_dtype(np.zeros(0, np.int64), np.zeros(0, np.int64)) is np.int64
    # C(m, 3) passes 2^62 at m = 2^21 but not at 2^20; the row sums stay far below it
    assert hubs._k2_dtype(np.full(5, 2000), np.full(5, 2**20)) is np.int64
    assert hubs._k2_dtype(np.full(5, 2000), np.full(5, 2**21)) is object
    # row sums of (A^2)^3 alone could pass 2^62
    with pytest.raises(CountOverflowError):
        hubs._k2_dtype(np.array([2**20, 1]), np.array([2**21, 1]))


def test_k2_l3_python_int_path_matches_int64(monkeypatch):
    rng = np.random.default_rng(8)
    a = np.triu(rng.random((30, 30)) < 0.3, 1)
    g = Graph.from_edges(np.argwhere(a), 30)
    want = wheel_counts_per_hub(_fresh(g), K23)
    monkeypatch.setattr(hubs, "_k2_dtype", lambda d, d2: object)
    got = wheel_counts_per_hub(_fresh(g), K23)
    assert got.dtype == object
    assert [int(c) for c in got] == want.tolist()


def test_k2_closed_forms_switch_to_python_ints_on_their_own():
    # K_{a,a} with a = 1301: D^(2) = a(a - 1) = 1691300 at every hub, whose
    # cube passes 2^62, so the k = 2 forms combine in Python ints unasked
    a = 1301
    side = np.arange(a)
    g = Graph.from_edges(np.column_stack([np.repeat(side, a), np.tile(side + a, a)]), 2 * a)
    assert hubs._k2_dtype(g.stats.d, g.stats.d2) is object
    want = {K22: a * (a - 1) ** 2 * (a - 2) // 2,
            K23: a * (a - 1) ** 2 * (a - 2) ** 2 * (a - 3) // 6}
    for spec, count in want.items():
        assert set(wheel_counts_per_hub(g, spec).tolist()) == {count}, spec.name()
    assert wheel_counts_per_hub(g, K23).dtype == object


def test_mixed_int64_guard_decision():
    # terms are at most M C(D - 1, l); C(2^20, 2) = 2^39 - 2^19, so the boundary
    # M is the least with M C(2^20, 2) >= 2^62
    d = np.array([2**20 + 1, 1, 1])
    c = 2**39 - 2**19
    m = -(-(2**62) // c)
    assert m == 8388617 and (m - 1) * c < 2**62 <= m * c
    assert hubs._mixed_dtype(d, np.array([m - 1, 0, 0]), 2) is np.int64
    assert hubs._mixed_dtype(d, np.array([m, 0, 0]), 2) is object
    # no k-paths: the binomials alone decide
    assert hubs._mixed_dtype(np.array([99, 1]), np.zeros(2, np.int64), 9) is np.int64
    assert hubs._mixed_dtype(np.array([99, 1]), np.zeros(2, np.int64), 20) is object
    assert hubs._mixed_dtype(np.zeros(0, np.int64), np.zeros(0, np.int64), 3) is np.int64


def test_mixed_python_int_path_matches_int64(monkeypatch):
    rng = np.random.default_rng(9)
    a = np.triu(rng.random((30, 30)) < 0.3, 1)
    g = Graph.from_edges(np.argwhere(a), 30)
    specs = [WheelSpec((1, k), (l, 1)) for k in (2, 3) for l in (1, 2, 3)]
    want = [wheel_counts_per_hub(_fresh(g), spec) for spec in specs]
    monkeypatch.setattr(hubs, "_mixed_dtype", lambda d, dk, l: object)
    for spec, w in zip(specs, want):
        got = wheel_counts_per_hub(_fresh(g), spec)
        assert got.dtype == object
        assert [int(c) for c in got] == w.tolist()


def test_closed_form_keys_are_counted_once_per_graph(monkeypatch):
    calls = Counter()
    closed_form = hubs._closed_form

    def counting(g, k, l):
        calls[(k, l)] += 1
        return closed_form(g, k, l)

    monkeypatch.setattr(hubs, "_closed_form", counting)
    model = BlockModel(pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.02)
    g = sample_block_model(model, 600, seed=4).graph
    cfg = FitConfig(K=2)
    cache = HubCountCache.build(g, cfg.keys())
    fit_block_model(g, cfg)
    # the fit reads (2,1) through its class, the closed form of (1,2)
    assert calls == Counter({(1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 2): 1, (2, 3): 1})
    # memoised columns come back as copies
    cache.get((2, 3))[:] = -1
    assert wheel_counts_per_hub(g, K23).min() >= 0


def test_mixed_k3_columns_share_one_path_split(monkeypatch):
    # D^(3) and P(1..3) once per graph for the four k = 3 mixed keys of a K = 3 fit
    calls = Counter()
    m_degrees_ = hubs.m_degrees

    def counting(g, m, *args, **kwargs):
        calls[m] += 1
        return m_degrees_(g, m, *args, **kwargs)

    monkeypatch.setattr(hubs, "m_degrees", counting)
    rng = np.random.default_rng(10)
    g = Graph.from_edges(np.argwhere(np.triu(rng.random((40, 40)) < 0.2, 1)), 40)
    specs = [WheelSpec((1, 3), (l, 1)) for l in range(1, 5)]
    want = [wheel_counts_per_hub(_fresh(g), spec) for spec in specs]
    calls.clear()
    assert [wheel_counts_per_hub(g, spec).tolist() for spec in specs] == [w.tolist() for w in want]
    assert calls == Counter({3: 1}) and set(g.stats.path_splits) == {3}


def test_budgeted_keys_are_not_memoised():
    rng = np.random.default_rng(2)
    g = Graph.from_edges(np.argwhere(np.triu(rng.random((12, 12)) < 0.4, 1)), 12)
    for spec in (WheelSpec.simple(4, 1), WheelSpec.simple(3, 2)):
        wheel_counts_per_hub(g, spec, budget=None)
        with pytest.raises(BudgetExceededError):
            wheel_counts_per_hub(g, spec, budget=10)
        assert spec not in g.stats.hub_columns
