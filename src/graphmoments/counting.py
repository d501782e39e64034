"""Exact pattern counting: induced and noninduced copies.

Counts are numbers of vertex subsets carrying a copy of the pattern
(noninduced: the pattern's edges are present; induced: the subset's edge
set equals the pattern exactly), i.e. labeled embeddings divided by
|Aut(R)|.  All arithmetic is exact integer arithmetic.

Order-3 patterns (2-stars and triangles) take closed-form fast paths so
they stay cheap on large sparse graphs: triangles come from the graph's
cached statistics layer (``Graph.stats``, a vectorised listing that never
forms A^2).  Everything else goes through an injective backtracking search
with an optional node budget.
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


def _embedding_count(g: Graph, r: PatternGraph, induced: bool, budget: int | None) -> int:
    """Count injective vertex maps preserving edges (and non-edges if induced)."""
    p = r.p
    padj = r.adjacency
    # visit each connected component in a BFS order so new vertices anchor
    # on already-mapped neighbors whenever possible
    order: list[int] = []
    placed = set()
    while len(order) < p:
        root = max(
            (v for v in range(p) if v not in placed),
            key=lambda v: len(padj[v]),
        )
        queue = [root]
        placed.add(root)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(padj[v], key=lambda x: -len(padj[x])):
                if u not in placed:
                    placed.add(u)
                    queue.append(u)
    anchors = []
    non_anchors = []
    for idx, v in enumerate(order):
        before = order[:idx]
        anchors.append([u for u in before if u in padj[v]])
        non_anchors.append([u for u in before if u not in padj[v]])

    nbr = [set(g.neighbors(i).tolist()) for i in range(g.n)]
    gdeg = g.degrees
    pdeg = r.degree_sequence
    image = [-1] * p
    used = set()
    count = 0
    nodes = 0
    all_vertices = range(g.n)

    def extend(idx: int):
        nonlocal count, nodes
        if idx == p:
            count += 1
            return
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(
                f"embedding search exceeded budget of {budget} nodes"
            )
        v = order[idx]
        anc = anchors[idx]
        if anc:
            base = min((nbr[image[u]] for u in anc), key=len)
            candidates = [x for x in base if x not in used]
        else:
            candidates = [x for x in all_vertices if x not in used]
        for x in candidates:
            if gdeg[x] < pdeg[v]:
                continue
            ok = True
            for u in anc:
                if x not in nbr[image[u]]:
                    ok = False
                    break
            if ok and induced:
                for u in non_anchors[idx]:
                    if x in nbr[image[u]]:
                        ok = False
                        break
            if not ok:
                continue
            image[v] = x
            used.add(x)
            extend(idx + 1)
            used.discard(x)
            image[v] = -1

    extend(0)
    return count


def automorphism_count(r: PatternGraph) -> int:
    """|Aut(R)|: the induced embeddings of R into itself."""
    return _embedding_count(Graph.from_edges(r.edges, r.p), r, induced=True, budget=None)


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
    embeddings = _embedding_count(g, r, induced=induced, budget=budget)
    return quotient_by_automorphisms(embeddings, automorphism_count(r))


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
