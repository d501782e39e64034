"""Exact pattern counting: induced and noninduced copies.

Counts are numbers of vertex subsets carrying a copy of the pattern
(noninduced: the pattern's edges are present; induced: the subset's edge
set equals the pattern exactly), i.e. labeled embeddings divided by
|Aut(R)|.  All arithmetic is exact integer arithmetic.

Order-3 patterns (2-stars and triangles) take closed-form fast paths so
they stay cheap on large sparse graphs: triangles come from the graph's
cached statistics layer (``Graph.stats``, a vectorised listing that never
forms A^2).  Everything else goes through ``embeddings``, an injective
backtracking search with an optional node budget.  It is the package's
one enumerator: rooted at pattern vertex 0 and with symmetry-breaking
pairs (Grochow & Kellis, RECOMB 2007) it also yields the per-hub wheel
counts of ``hubs`` and the path counts D^(m), m >= 4, of ``degrees``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceededError, InvariantError
from .graph import Graph
from .patterns import PatternGraph, quotient_by_automorphisms


def wedge_count(g: Graph) -> int:
    """Number of paths on 3 vertices (noninduced 2-star copies)."""
    d = g.degrees.astype(object)
    return int(sum(x * (x - 1) // 2 for x in d))


def triangle_count(g: Graph) -> int:
    corners = int(g.stats.triangles.sum())
    if corners % 3:
        raise InvariantError("per-vertex triangle counts do not sum to a multiple of 3")
    return corners // 3


def triangles_per_vertex(g: Graph) -> np.ndarray:
    """Triangles through each vertex, from the graph's cached listing."""
    return g.stats.triangles.copy()


def _count_p3(g: Graph, r: PatternGraph, induced: bool) -> int:
    t = triangle_count(g)
    if r.q == 3:
        return t
    w = wedge_count(g)
    # each triangle's three 2-subsets of edges are noninduced 2-stars but
    # not induced ones
    return w - 3 * t if induced else w


class Budget:
    """The search nodes one job may visit, spent by every search it runs.

    job names what is counted (a pattern, a wheel key, D^(m)) in the error
    raised when the nodes run out; limit None means no budget.
    """

    def __init__(self, limit: int | None, job: str):
        self.limit, self.job = limit, job
        self.left = math.inf if limit is None else limit


class _NeighbourSets(dict):
    """The neighbour sets of g's vertices, each built when first read, so a
    search stopped by its budget pays only for the vertices it reached."""

    def __init__(self, g: Graph):
        super().__init__()
        self.g = g

    def __missing__(self, x: int) -> set[int]:
        self[x] = found = set(self.g.neighbors(x).tolist())
        return found


def _search_order(padj, root: int | None) -> list[int]:
    """Pattern vertices component by component in BFS order, so each new
    vertex anchors on an already-mapped neighbour whenever possible; the
    first vertex is root, else one of largest degree."""
    p = len(padj)
    order: list[int] = []
    placed = set()
    while len(order) < p:
        start = root if not order and root is not None else max(
            (v for v in range(p) if v not in placed), key=lambda v: len(padj[v]))
        queue = [start]
        placed.add(start)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(padj[v], key=lambda x: -len(padj[x])):
                if u not in placed:
                    placed.add(u)
                    queue.append(u)
    return order


def embeddings(g: Graph, padj, budget: Budget, induced: bool = False, root: bool = False,
               pairs=()) -> int | list[int]:
    """Injective maps of the pattern with neighbour sets padj into g that keep
    its edges (and, if induced, its non-edges), with image[u] < image[v] for
    every (u, v) in pairs.

    With root, pattern vertex 0 is mapped first and the result lists the
    maps by the host vertex it maps to; otherwise it is their total.  Each
    search node, one partial map, spends one step of budget.  Beyond g's
    neighbour sets and the per-vertex tally the search holds O(p) state.
    """
    p, n = len(padj), g.n
    order = _search_order(padj, 0 if root else None)
    at = {v: i for i, v in enumerate(order)}
    # per position: the first placed neighbour, whose image's neighbours are
    # the candidates, the other placed neighbours and (if induced) non-
    # neighbours, the placed ends of pairs bounding it from below and above,
    # and its degree
    plan = []
    for i, v in enumerate(order):
        anc = [at[u] for u in order[:i] if u in padj[v]]
        plan.append((
            anc[0] if anc else None,
            anc[1:],
            [at[u] for u in order[:i] if u not in padj[v]] if induced else [],
            [at[u] for u, w in pairs if w == v and at[u] < i],
            [at[w] for u, w in pairs if u == v and at[w] < i],
            len(padj[v]),
        ))
    nbr = _NeighbourSets(g)
    deg = g.degrees.tolist()
    everything = set(range(n))
    image = [0] * p
    used: set[int] = set()
    tally = [0] * n
    left = budget.left
    # a last position with one placed neighbour and nothing else to check is
    # counted in its parent's loop, without a call
    lead, plain = plan[-1][0], not any(plan[-1][1:5])

    def extend(i: int) -> int:
        nonlocal left
        first, within, outside, below, above, least = plan[i]
        candidates = everything if first is None else nbr[image[first]]
        for j in within:
            candidates = candidates & nbr[image[j]]
        for j in outside:
            candidates = candidates - nbr[image[j]]
        lo = max(image[j] for j in below) if below else -1
        hi = min(image[j] for j in above) if above else n
        if i == p - 1:
            # every neighbour of the last vertex is placed, so its degree holds
            total = sum(1 for x in candidates if lo < x < hi and x not in used)
        else:
            total = 0
            for x in candidates:
                if x in used or deg[x] < least or not lo < x < hi:
                    continue
                image[i] = x
                used.add(x)
                if i + 2 < p or not plain:
                    found = extend(i + 1)
                else:
                    left -= 1
                    ends = nbr[image[lead]]
                    found = len(ends) - len(used.intersection(ends))
                used.discard(x)
                total += found
                if not i:
                    tally[x] = found
        # a node spends its step after its loop, so this one check also
        # covers the last-position nodes counted in the loop
        left -= 1
        if left < 0:
            raise BudgetExceededError(
                f"counting {budget.job} exceeded the budget of {budget.limit} search nodes")
        return total

    total = extend(0)
    budget.left = left
    return tally if root else total


def automorphism_count(r: PatternGraph) -> int:
    """|Aut(R)|: the induced embeddings of R into itself, searched once per
    pattern and kept on it, as ``cached_property`` keeps its values."""
    memo = vars(r)  # a frozen dataclass's own dict, which no field lives in
    if "automorphisms" not in memo:
        memo["automorphisms"] = embeddings(Graph.from_edges(r.edges, r.p), r.adjacency,
                                           Budget(None, r.name()), induced=True)
    return memo["automorphisms"]


def count_isomorphism_classes(r: PatternGraph) -> int:
    """N(R) = p!/|Aut(R)|: distinct graphs on a fixed p-set isomorphic to R."""
    return quotient_by_automorphisms(math.factorial(r.p), automorphism_count(r))


def _count(g: Graph, r: PatternGraph, induced: bool, budget: int | None) -> int:
    if r.p > g.n:
        return 0
    if r.p == 2:
        # a 2-subset induces exactly one possible nonempty edge set
        return g.edge_count
    if r.p == 3:
        return _count_p3(g, r, induced)
    maps = embeddings(g, r.adjacency, Budget(budget, r.name()), induced=induced)
    return quotient_by_automorphisms(maps, automorphism_count(r))


def count_noninduced(g: Graph, r: PatternGraph, budget: int | None = None) -> int:
    """Subsets of V(g) carrying every edge of r (extra edges allowed)."""
    return _count(g, r, False, budget)


def count_induced(g: Graph, r: PatternGraph, budget: int | None = None) -> int:
    """Subsets of V(g) whose induced edge set equals r exactly."""
    return _count(g, r, True, budget)


def supergraphs_on_same_vertices(r: PatternGraph) -> list[PatternGraph]:
    """All patterns S ⊇ R on V(R) (including R itself), one per edge superset."""
    from itertools import combinations

    existing = set(r.edges)
    non_edges = [
        (u, v) for u, v in combinations(range(r.p), 2) if (u, v) not in existing
    ]
    out = []
    for size in range(len(non_edges) + 1):
        for extra in combinations(non_edges, size):
            out.append(PatternGraph(p=r.p, edges=r.edges + tuple(extra)))
    return out
