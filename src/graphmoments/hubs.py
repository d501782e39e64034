"""Per-hub wheel counting.

For a wheel specification (ks, ls), the per-hub count n_i is the number of
ways to choose, for each spoke length k_j, an unordered set of l_j k-edge
paths starting at i, all paths pairwise vertex-disjoint away from the hub.
Summed over hubs this equals hub_multiplicity(spec) times the noninduced
copy count of the wheel pattern, which is what the moment estimators and
the subsampling bootstrap consume.

Fast paths:
  * k = 1:               binomial(degree, l)
  * l = 1, k <= 3:       order-k degrees (path counts)
  * k = 2, l in {2, 3}:  closed-form independent-set counts in the
                         conflict graph of 2-paths, with no Python loops
  * ((1,l),(k,1)), k in {2, 3}, any l: one k-spoke and l 1-spokes, from the
                         k-paths split by how many of their vertices are
                         neighbours of the hub
Everything else runs the rooted search of ``counting.embeddings`` on the
wheel's layout: the hub is pinned to each vertex in turn and equal-length
spokes are ordered by their first vertex, so each copy is visited once,
and one budget bounds the key's search nodes over all hubs.

The k = 2 closed forms read ``Graph.stats`` (see ``graphstats``): B, the
sums of (A^2)_ik^2 and (A^2)_ik^3, and for (2,3) the cross sum over
(A∘X)·A and the triangles and K4s over triangle edges.  ``wheel_counts``
asks (2,3) first, so that one pass over (A∘X)·A gives all three sums.
Closed-form columns are memoised per graph.
"""

from __future__ import annotations

import math

import numpy as np

from .counting import Budget, embeddings, triangles_per_vertex
from .degrees import falling_factorial_column, m_degrees
from .errors import InvariantError
from .graph import Graph
from .graphstats import _INT64_LIMIT, _k2_dtype, exact_sum_dtype, row_sums
from .patterns import WheelSpec, adjacency, hub_multiplicity, wheel_layout, wheel_rooted_count

DEFAULT_BUDGET = 1_000_000
_K23 = WheelSpec.simple(2, 3)


def _hub_counts_k2_l2(g: Graph) -> np.ndarray:
    """Disjoint pairs of 2-paths per hub.

    With m_i available 2-paths, count pairs and subtract conflicts: for
    each non-hub vertex v used by t_v paths there are C(t_v, 2) clashing
    pairs, a pair sharing both vertices (a path and its reversal, one per
    edge inside the hub's neighborhood) having been double-counted once.
    t_v splits into mid(v) = [v ~ i](d_v - 1) and end(v) = (A^2)_iv, so
    sum_v t_v^2 needs only B and the row sums of (A^2)^2, both from the
    statistics layer's pass over A^2.
    """
    st = g.stats
    d, m = st.d, st.d2
    s2, _ = st.a2_sums  # guarded against wrapping; C(m, 2) picks its own dtype
    mid = d[g.indices] - 1
    sum_t2 = row_sums(g.indptr, mid * mid + 2 * mid * st.edge_triangles) + s2
    conflicts = (sum_t2 - 2 * m) // 2 - triangles_per_vertex(g)
    return falling_factorial_column(m, 2) // 2 - conflicts


def _hub_counts_k2_l3(g: Graph) -> np.ndarray:
    """Disjoint triples of 2-paths per hub via conflict-graph counting.

    Independent 3-sets in a graph with m nodes, E edges, degrees dc and
    t triangles: C(m,3) - E (m-2) + sum_p C(dc_p, 2) - t.  Every term is a
    closed form over hub i (no loops over paths or triangles):

    * usage t_v = mid(v) + end(v) as in (2,2); E = sum_v C(t_v, 2) minus
      the reversal pairs, and the conflict triangles through one shared
      vertex are sum_v C(t_v, 3), from B and the pass's row sums of
      (A^2)^2 and (A^2)^3;
    * a path p = (i, j, k) has dc_p = X_ij + Y_ik with X_ij = d_j - 2 + B_ij
      and Y_ik = (A^2)_ik - 1 + [i ~ k](d_k - 2); the cross sum
      sum_p X_ij Y_ik = sum_{k != i} Y_ik Q_ik with Q = (A ∘ X) A takes
      sum_k (A^2)_ik Q_ik from the pass over A^2 and its [i ~ k] part
      from the triangles through i;
    * three pairwise-overlapping paths without a shared vertex trace a
      triangle {a, b, c} of the graph avoiding i: 2 of them when i is
      adjacent to exactly two of a, b, c and 8 when adjacent to all three,
      which sums to rowsum((A (A ∘ B)) ∘ A)_i - 2 t_i + 2 K4_i, read off
      the triangles and K4s through i.
    """
    st = g.stats
    d, m = st.d, st.d2
    dtype = _k2_dtype(d, m)
    pq = st.a2_cross  # caches B and the sums of a2_sums too
    s2, s3 = st.a2_sums
    t = triangles_per_vertex(g)
    b = st.edge_triangles
    dk = d[g.indices]
    x = dk - 2 + b
    opposite, k4, qe = st.clique_terms()
    q_ii = row_sums(g.indptr, x)
    cross = pq - d * q_ii - (row_sums(g.indptr, x * dk) - q_ii) + qe

    mid = dk - 1
    sum_t2 = row_sums(g.indptr, mid**2 + 2 * mid * b) + s2
    sum_t3 = row_sums(g.indptr, mid**3 + 3 * mid**2 * b + 3 * mid * b**2) + s3
    e_conf = (sum_t2 - 2 * m) // 2 - t
    comb3_t = (sum_t3 - 3 * sum_t2 + 4 * m) // 6
    sum_dc = row_sums(g.indptr, mid * x + b * (dk - 2)) + s2 - m
    sum_dc2 = (
        row_sums(g.indptr, mid * x**2 + b * (dk - 2) * (2 * b - 2 + dk - 2))
        + 2 * cross
        + s3 - 2 * s2 + m
    )
    cyc = opposite - 2 * t + 2 * k4
    return (
        falling_factorial_column(m, 3) // 6
        - e_conf.astype(dtype) * np.maximum(m - 2, 0).astype(dtype)
        + (sum_dc2 - sum_dc) // 2
        - comb3_t
        - cyc
    )


def _mixed_dtype(d: np.ndarray, dk: np.ndarray, l: int):
    """Integer type for the mixed closed form, from max degree D and max D^(k) M.

    Its terms P(r) C(d - r, l) and their sum are at most D^(k)_i C(d_i - 1, l)
    <= M C(D - 1, l), as r >= 1 and the P(r) sum to D^(k): past 2^62, Python
    ints.  M counts as at least 1, so that on int64 the binomials fit too.
    """
    dmax = int(d.max(initial=0))
    mmax = max(int(dk.max(initial=0)), 1)
    return object if mmax * math.comb(max(dmax - 1, 0), l) >= _INT64_LIMIT else np.int64


def _hub_counts_mixed(g: Graph, k: int, l: int) -> np.ndarray:
    """One k-spoke and l 1-spokes per hub, k in {2, 3}: n_i = sum_r P_i(r) C(d_i - r, l).

    P_i(r) counts the ordered k-paths from i with exactly r vertices in N(i);
    the 1-spokes are any l of the other d_i - r neighbours.  For k = 2,
    P(2) = 2 t_i and P(1) = D^(2)_i - 2 t_i.  For k = 3, paths (i, j, m, x):

    * P(3) = sum_{m~i} B_im (B_im - 1): j and x are common neighbours of i and m;
    * P(2) = sum_{m~i} B_im (d_m - 1 - B_im) + (s2 - D^(2) - P(3)): m ~ i and
      x ≁ i, or m ≁ i and j, x common neighbours of i and m, which is
      sum_{m≁i, m≠i} (A^2)_im ((A^2)_im - 1);
    * P(1) = D^(3) - P(2) - P(3).

    Each P(r) is at most D^(k), under D^(3)'s and the k = 2 guards.  D^(k)
    and the P(r) are computed once per graph, in ``g.stats.path_splits``.
    """
    st = g.stats
    d, t = st.d, triangles_per_vertex(g)
    if k in st.path_splits:
        dk, paths = st.path_splits[k]
    elif k == 2:
        dk, paths = st.d2, {2: 2 * t, 1: st.d2 - 2 * t}
    else:
        dk = m_degrees(g, 3).counts[:, 2]
        s2, _ = st.a2_sums
        b = st.edge_triangles
        p3 = row_sums(g.indptr, b * (b - 1))
        p2 = row_sums(g.indptr, b * (d[g.indices] - 1 - b)) + s2 - st.d2 - p3
        paths = {3: p3, 2: p2, 1: dk - p2 - p3}
    st.path_splits[k] = dk, paths
    dtype, lfact = _mixed_dtype(d, dk, l), math.factorial(l)
    choose = {r: falling_factorial_column(np.maximum(d - r, 0), l) // lfact for r in paths}
    return sum(p.astype(dtype) * choose[r].astype(dtype) for r, p in paths.items())


def _closed_form(g: Graph, k: int, l: int) -> np.ndarray:
    if k == 1:
        return falling_factorial_column(g.degrees, l) // math.factorial(l)
    if l == 1:
        return m_degrees(g, k).counts[:, k - 1]
    return _hub_counts_k2_l2(g) if l == 2 else _hub_counts_k2_l3(g)


def _mixed_spokes(spec: WheelSpec) -> tuple[int, int] | None:
    """(k, l) when spec is the mixed key ((1,l),(k,1)) with k in {2, 3}, else None."""
    spokes = dict(zip(spec.ks, spec.ls))
    k = max(spokes)
    if len(spokes) == 2 and 1 in spokes and k <= 3 and spokes[k] == 1:
        return k, spokes[1]
    return None


def has_closed_form(spec: WheelSpec) -> bool:
    """Whether spec's per-hub counts come from a closed form: (1,l), (2,1),
    (3,1), (2,2), (2,3) or ((1,l),(k,1)) for k in {2, 3}.  These enumerate
    nothing, so no budget applies."""
    if not spec.is_simple:
        return _mixed_spokes(spec) is not None
    k, l = spec.ks[0], spec.ls[0]
    return k == 1 or (l == 1 and k <= 3) or (k == 2 and l <= 3)


def wheel_counts_per_hub(
    g: Graph, spec: WheelSpec, budget: int | None = DEFAULT_BUDGET
) -> np.ndarray:
    """Exact per-hub wheel counts n_i for every vertex.

    Dispatches to closed forms where available (``has_closed_form``); each
    is computed once per graph, memoised in ``g.stats`` and returned as a
    copy.  Other keys, (k,1) for k >= 4 among them, run the rooted search of
    the wheel's layout, where the budget caps the search nodes of the whole
    key, not of one hub; they are recomputed on every call, so a smaller
    budget still raises.  Returns int64 when safe, Python ints (object
    dtype) when counts could overflow.
    """
    if has_closed_form(spec):
        memo = g.stats.hub_columns
        if spec not in memo:
            memo[spec] = (_closed_form(g, spec.ks[0], spec.ls[0]) if spec.is_simple
                          else _hub_counts_mixed(g, *_mixed_spokes(spec)))
        return memo[spec].copy()
    edges, pairs = wheel_layout(spec)
    counts = embeddings(g, adjacency(spec.p, edges), Budget(budget, spec.name()),
                        root=True, pairs=pairs)
    return np.array(counts, dtype=np.int64 if max(counts, default=0) < 2**63 else object)


def wheel_counts(g: Graph, specs, budget: int | None = DEFAULT_BUDGET) -> dict:
    """{spec: ``wheel_counts_per_hub(g, spec, budget)``}, counting (2,3) first:
    then its pass also gives the sums (2,2) reads (``GraphStats.a2_cross``)."""
    return {s: wheel_counts_per_hub(g, s, budget) for s in sorted(specs, key=lambda s: s != _K23)}


def wheel_total(counts, spec: WheelSpec, n: int) -> tuple[int, int]:
    """(Per-hub total, C(n, p) p!/prod(ls!)): numerator and denominator of Q-hat.

    The total of per-hub counts on an n-vertex graph is exact and is
    hub_multiplicity(spec) times the noninduced copy count; the
    denominator is the hub-rooted labelings of every p-vertex set.
    """
    counts = np.asarray(counts)
    total = int(counts.sum(dtype=exact_sum_dtype(counts, counts.size)))
    mult = hub_multiplicity(spec)
    if total % mult:
        raise InvariantError(f"per-hub total {total} not divisible by hub multiplicity {mult}")
    return total, math.comb(n, spec.p) * wheel_rooted_count(spec)


def wheel_noninduced_count(g: Graph, spec: WheelSpec, budget: int | None = DEFAULT_BUDGET) -> int:
    """Noninduced copy count of the wheel, from per-hub counts."""
    total, _ = wheel_total(wheel_counts_per_hub(g, spec, budget), spec, g.n)
    return total // hub_multiplicity(spec)
