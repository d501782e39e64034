"""Brute-force reference implementations used to pin the fast kernels.

Everything here trades speed for obviousness: full enumeration over
injective vertex tuples, naive recursion, dense assignment sums.  Keep
these dumb; they are the ground truth the package is tested against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from graphmoments import Graph, PatternGraph, WheelSpec, wheel_rooted_count


def dense_adj(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=bool)
    for i in range(g.n):
        a[i, g.neighbors(i)] = True
    return a


def graph_from_dense(a: np.ndarray) -> Graph:
    n = a.shape[0]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if a[i, j]]
    return Graph.from_edges(edges, n)


def random_dense(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    a = rng.random((n, n)) < p
    a = np.triu(a, 1)
    return a | a.T


# ---------------------------------------------------------------------------
# injective-tuple histogram: exact induced/noninduced counts for any pattern


class TupleHistogram:
    """Histogram of edge-presence masks over all injective p-tuples.

    For each ordered injective tuple (v_0..v_{p-1}) the mask has bit c set
    iff the graph joins the tuple's c-th vertex pair.  Induced/noninduced
    counts for every p-vertex pattern then reduce to table lookups.
    """

    _tuple_cache: dict[tuple[int, int], np.ndarray] = {}

    def __init__(self, a: np.ndarray, p: int):
        n = a.shape[0]
        self.p = p
        self.pairs = list(itertools.combinations(range(p), 2))
        key = (n, p)
        if key not in self._tuple_cache:
            tuples = np.array(list(itertools.permutations(range(n), p)), dtype=np.intp)
            self._tuple_cache[key] = tuples.reshape(-1, p)
        t = self._tuple_cache[key]
        mask = np.zeros(len(t), dtype=np.int64)
        for c, (i, j) in enumerate(self.pairs):
            mask |= a[t[:, i], t[:, j]].astype(np.int64) << c
        self.hist = np.bincount(mask, minlength=1 << len(self.pairs))

    def _pattern_mask(self, r: PatternGraph) -> int:
        idx = {pair: c for c, pair in enumerate(self.pairs)}
        m = 0
        for u, v in r.edges:
            m |= 1 << idx[(min(u, v), max(u, v))]
        return m

    def noninduced_tuples(self, r: PatternGraph) -> int:
        m = self._pattern_mask(r)
        all_masks = np.arange(self.hist.size)
        return int(self.hist[(all_masks & m) == m].sum())

    def induced_tuples(self, r: PatternGraph) -> int:
        return int(self.hist[self._pattern_mask(r)])


def tuple_automorphisms(r: PatternGraph) -> int:
    """|Aut| by raw permutation filtering."""
    edges = {(min(u, v), max(u, v)) for u, v in r.edges}
    count = 0
    for perm in itertools.permutations(range(r.p)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges):
            count += 1
    return count


def oracle_counts(a: np.ndarray, r: PatternGraph, hist: TupleHistogram | None = None):
    """(induced, noninduced) copy counts by full tuple enumeration."""
    if hist is None:
        hist = TupleHistogram(a, r.p)
    aut = tuple_automorphisms(r)
    ni, ii = hist.noninduced_tuples(r), hist.induced_tuples(r)
    assert ni % aut == 0 and ii % aut == 0
    return ii // aut, ni // aut


# ---------------------------------------------------------------------------
# rooted wheels: naive recursive spoke placement


def oracle_paths_from(a: np.ndarray, hub: int, k: int) -> list[tuple[int, ...]]:
    """All loopless k-edge paths from hub, as ordered vertex tuples."""
    n = a.shape[0]
    out = []

    def walk(path: tuple[int, ...]):
        last = path[-1]
        if len(path) == k + 1:
            out.append(path[1:])
            return
        for u in range(n):
            if a[last, u] and u not in path:
                walk(path + (u,))

    walk((hub,))
    return out


def oracle_hub_count(a: np.ndarray, spec: WheelSpec, hub: int) -> int:
    """Rooted wheel count at hub: ordered spoke embeddings / prod(l_j!)."""
    groups = [oracle_paths_from(a, hub, k) for k in spec.ks]

    def rec(gi: int, need: int, start: int, used: frozenset) -> int:
        if need == 0:
            if gi + 1 == len(groups):
                return 1
            return rec(gi + 1, spec.ls[gi + 1], 0, used)
        total = 0
        paths = groups[gi]
        for idx in range(start, len(paths)):
            pset = frozenset(paths[idx])
            if used & pset:
                continue
            total += rec(gi, need - 1, idx + 1, used | pset)
        return total

    if not groups:
        return 1
    return rec(0, spec.ls[0], 0, frozenset())


def oracle_mdegree(a: np.ndarray, i: int, m: int) -> int:
    return len(oracle_paths_from(a, i, m))


def oracle_triangles_at(a: np.ndarray, i: int) -> int:
    """Pairs of neighbours of i that are adjacent to each other."""
    nb = [j for j in range(a.shape[0]) if a[i, j]]
    return sum(1 for j, k in itertools.combinations(nb, 2) if a[j, k])


def oracle_edge_triangles(a: np.ndarray, i: int, j: int) -> int:
    """Triangles through the edge ij: the common neighbours of i and j."""
    return sum(1 for k in range(a.shape[0]) if a[i, k] and a[j, k])


def oracle_overlapping_2path_pairs(a: np.ndarray, hub: int) -> int:
    """Ordered pairs of distinct loopless 2-paths from hub that share a
    vertex other than the hub."""
    paths = oracle_paths_from(a, hub, 2)
    return sum(1 for p in paths for q in paths if p != q and set(p) & set(q))


def oracle_clique_terms(a: np.ndarray, i: int) -> tuple[int, int, int]:
    """At vertex i, over ordered triangles (i, x, y): the sum of the common
    neighbours of x and y, the K4s through i, and the sum of
    (d_x - 2 + common neighbours of i and x)(d_y - 2)."""
    n = a.shape[0]
    deg = [int(a[v].sum()) for v in range(n)]

    def common(u: int, v: int) -> int:
        return sum(1 for w in range(n) if a[u, w] and a[v, w])

    others = [v for v in range(n) if v != i]
    opposite = qe = 0
    for x, y in itertools.permutations(others, 2):
        if a[i, x] and a[i, y] and a[x, y]:
            opposite += common(x, y)
            qe += (deg[x] - 2 + common(i, x)) * (deg[y] - 2)
    k4 = sum(1 for t in itertools.combinations(others, 3)
             if all(a[u, v] for u, v in itertools.combinations((i,) + t, 2)))
    return opposite, k4, qe


# ---------------------------------------------------------------------------
# edge sampling: Floyd's draw one step at a time


def floyd_sample(rng: np.random.Generator, total: int, k: int) -> np.ndarray:
    """Uniform k-subset of range(total), ascending, by Floyd's sequential
    loop: step i draws t in [0, j] with j = total - k + i and adds t, or j
    when t is already in the set."""
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    js = np.arange(total - k, total, dtype=np.int64)
    ts = rng.integers(0, js + 1)
    sel: set[int] = set()
    for t, j in zip(ts.tolist(), js.tolist()):
        sel.add(t if t not in sel else j)
    return np.array(sorted(sel), dtype=np.int64)


# ---------------------------------------------------------------------------
# subsampling bootstrap: one replicate and one swap at a time


def partial_fisher_yates(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """The first m entries of 0..n-1 after m sequential Fisher-Yates swaps,
    from one draw of integers(0, n - arange(m))."""
    arr = np.arange(n)
    draws = rng.integers(0, n - np.arange(m), dtype=np.int64)
    for j in range(m):
        k = j + int(draws[j])
        arr[j], arr[k] = arr[k], arr[j]
    return arr[:m]


def oracle_bootstrap_replicates(cache, key, m: int, B: int, seed: int):
    """Replicate values of bootstrap_variance, each from its own child
    generator of `seed` and its own subsample."""
    spec = WheelSpec.coerce(key)
    n, counts, degrees = cache.n, cache.get(spec), cache.degrees
    denom = math.comb(n, spec.p) * wheel_rooted_count(spec)
    reps = []
    for child in np.random.SeedSequence(seed).spawn(B):
        idx = partial_fisher_yates(n, m, np.random.default_rng(child))
        dbar = int(degrees[idx].sum()) / m
        p_hat = (n * int(counts[idx].sum())) / (m * denom)
        reps.append(p_hat * (dbar / (n - 1)) ** -spec.q)
    return reps


# ---------------------------------------------------------------------------
# theoretical moments: assignment sums straight from the definition


def oracle_tau_block(pi, S, r: PatternGraph) -> float:
    """Homomorphism density of the pattern in the (pi, S) kernel, summed
    over all K^p block assignments.  No operator iterates involved."""
    pi = np.asarray(pi, dtype=float)
    S = np.asarray(S, dtype=float)
    K, p = pi.size, r.p
    total = 0.0
    for assign in itertools.product(range(K), repeat=p):
        w = 1.0
        for u in assign:
            w *= pi[u]
        for u, v in r.edges:
            w *= S[assign[u], assign[v]]
        total += w
    return total


def oracle_wheel_tau(values: np.ndarray, weights: np.ndarray, spec) -> float:
    """One wheel moment from an iterate table, one spoke length at a time:
    sum_a weights_a prod_j values[a, k_j - 1]^l_j."""
    prod = np.ones(values.shape[0])
    for k, l in zip(spec.ks, spec.ls):
        prod = prod * values[:, k - 1] ** l
    return float(weights @ prod)


def oracle_tau_block_exact(pi, S, r: PatternGraph) -> Fraction:
    """Same assignment sum in exact rational arithmetic."""
    pi = [Fraction(x) for x in pi]
    K, p = len(pi), r.p
    total = Fraction(0)
    for assign in itertools.product(range(K), repeat=p):
        w = Fraction(1)
        for u in assign:
            w *= pi[u]
        for u, v in r.edges:
            w *= Fraction(S[assign[u]][assign[v]])
        total += w
    return total


def oracle_tau_grid(grid: np.ndarray, r: PatternGraph) -> float:
    """Homomorphism density for a gridded graphon (uniform cell masses)."""
    g, p = grid.shape[0], r.p
    total = 0.0
    for assign in itertools.product(range(g), repeat=p):
        w = 1.0
        for u, v in r.edges:
            w *= grid[assign[u], assign[v]]
        total += w
    return total / g**p


# ---------------------------------------------------------------------------
# pattern corpus: all connected isomorphism classes with p <= pmax


def connected_pattern_classes(pmax: int = 5) -> list[PatternGraph]:
    out = []
    for p in range(2, pmax + 1):
        pairs = list(itertools.combinations(range(p), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = [pairs[c] for c in range(len(pairs)) if bits >> c & 1]
            adj = [set() for _ in range(p)]
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            # connected?
            stack, seen_v = [0], {0}
            while stack:
                for u in adj[stack.pop()]:
                    if u not in seen_v:
                        seen_v.add(u)
                        stack.append(u)
            if len(seen_v) < p:
                continue
            canon = min(
                tuple(
                    sorted(
                        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
                    )
                )
                for perm in itertools.permutations(range(p))
            )
            if canon in seen:
                continue
            seen.add(canon)
            out.append(PatternGraph(p=p, edges=tuple(canon)))
    return out


def supergraph_classes_identity_terms(r: PatternGraph):
    """All labeled edge-supersets of r on the same vertex set (for the
    induced-from-noninduced inversion identity)."""
    pairs = [
        (u, v)
        for u, v in itertools.combinations(range(r.p), 2)
        if (u, v) not in {(min(a, b), max(a, b)) for a, b in r.edges}
    ]
    base = tuple(sorted((min(a, b), max(a, b)) for a, b in r.edges))
    out = []
    for extra in range(1 << len(pairs)):
        add = tuple(pairs[c] for c in range(len(pairs)) if extra >> c & 1)
        out.append(PatternGraph(p=r.p, edges=tuple(sorted(base + add))))
    return out


# ---------------------------------------------------------------------------
# misc exact helpers


def falling(x: int, l: int) -> int:
    out = 1
    for j in range(l):
        out *= x - j
    return out


def exact_qhat(count: int, n: int, p: int, n_iso: int) -> Fraction:
    return Fraction(count, math.comb(n, p) * n_iso)
