import numpy as np
import pytest

from graphmoments import (
    BudgetExceededError,
    PatternGraph,
    count_induced,
    count_noninduced,
    supergraphs_on_same_vertices,
    triangle_count,
    wedge_count,
)
from oracles import (
    TupleHistogram,
    connected_pattern_classes,
    graph_from_dense,
    oracle_counts,
    random_dense,
)

CORPUS = connected_pattern_classes(5)


def test_counts_match_oracle_on_random_graphs():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(5, 11))
        a = random_dense(n, rng.uniform(0.15, 0.7), rng)
        g = graph_from_dense(a)
        hists = {p: TupleHistogram(a, p) for p in range(2, 6)}
        for r in CORPUS:
            if r.p > n:
                continue
            ind, nonind = oracle_counts(a, r, hists[r.p])
            assert count_induced(g, r) == ind, (trial, r.name())
            assert count_noninduced(g, r) == nonind, (trial, r.name())


def test_fast_paths_agree_with_dense_wedge_triangle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(4, 30))
        a = random_dense(n, 0.3, rng)
        g = graph_from_dense(a)
        d = a.sum(axis=1)
        wedges = int((d * (d - 1) // 2).sum())
        tri = int(np.trace(np.linalg.matrix_power(a.astype(np.int64), 3)) // 6)
        assert wedge_count(g) == wedges
        assert triangle_count(g) == tri
        p3 = PatternGraph(p=3, edges=((0, 1), (1, 2)))
        k3 = PatternGraph(p=3, edges=((0, 1), (0, 2), (1, 2)))
        assert count_noninduced(g, p3) == wedges
        assert count_induced(g, k3) == tri
        assert count_induced(g, p3) == wedges - 3 * tri


def test_zero_when_pattern_bigger_than_graph():
    g = graph_from_dense(random_dense(3, 0.9, np.random.default_rng(0)))
    r = PatternGraph(p=4, edges=((0, 1), (1, 2), (2, 3)))
    assert count_noninduced(g, r) == 0
    assert count_induced(g, r) == 0


def test_budget_guard():
    rng = np.random.default_rng(1)
    g = graph_from_dense(random_dense(40, 0.5, rng))
    r = PatternGraph(p=5, edges=((0, 1), (1, 2), (2, 3), (3, 4)))
    with pytest.raises(BudgetExceededError):
        count_noninduced(g, r, budget=50)


def test_supergraph_enumeration_matches_inversion_identity():
    # induced count of R = sum over supersets S of +-1 weighted noninduced
    # counts; equivalently noninduced(R) = sum_S induced(S).  Check the
    # subset-sum side exactly on a random graph.
    rng = np.random.default_rng(11)
    a = random_dense(8, 0.45, rng)
    g = graph_from_dense(a)
    for r in (
        PatternGraph(p=3, edges=((0, 1), (1, 2))),
        PatternGraph(p=4, edges=((0, 1), (1, 2), (2, 3))),
    ):
        hist = TupleHistogram(a, r.p)
        total = 0
        for s in supergraphs_on_same_vertices(r):
            total += hist.induced_tuples(s)
        assert total == hist.noninduced_tuples(r)


def test_automorphisms_are_searched_once_per_pattern(monkeypatch):
    from graphmoments import automorphism_count, count_isomorphism_classes, counting

    searches = []
    search = counting.embeddings

    def counted(*args, **kwargs):
        searches.append(kwargs.get("induced"))
        return search(*args, **kwargs)

    monkeypatch.setattr(counting, "embeddings", counted)
    c4 = PatternGraph(p=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)))
    assert [automorphism_count(c4) for _ in range(3)] == [8, 8, 8]
    assert count_isomorphism_classes(c4) == 3
    assert searches == [True]
    # a copy's count is its own, and equal to the first's
    twin = PatternGraph(p=4, edges=c4.edges)
    assert automorphism_count(twin) == 8 and searches == [True, True]
    # counting in a graph reuses the pattern's count
    g = graph_from_dense(np.ones((6, 6), bool) & ~np.eye(6, dtype=bool))
    assert count_noninduced(g, c4) == 45 and searches == [True, True, False]
