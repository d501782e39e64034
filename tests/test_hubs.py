import math

import numpy as np
import pytest

from graphmoments import (
    BudgetExceededError,
    InvariantError,
    WheelSpec,
    count_noninduced,
    hub_multiplicity,
    wheel_counts_per_hub,
    wheel_noninduced_count,
    wheel_to_pattern,
)
from graphmoments import hubs
from oracles import graph_from_dense, oracle_hub_count, random_dense

SPECS = [
    WheelSpec.simple(1, 1),
    WheelSpec.simple(1, 2),
    WheelSpec.simple(1, 3),
    WheelSpec.simple(2, 1),
    WheelSpec.simple(2, 2),
    WheelSpec.simple(2, 3),
    WheelSpec.simple(3, 1),
    WheelSpec.simple(3, 2),
    WheelSpec.simple(2, 4),
    WheelSpec.simple(4, 1),
    WheelSpec(ks=(1, 2), ls=(1, 1)),
    WheelSpec(ks=(1, 2), ls=(2, 1)),
    WheelSpec(ks=(1, 2), ls=(1, 2)),
    WheelSpec(ks=(1, 3), ls=(1, 1)),
    WheelSpec(ks=(2, 3), ls=(1, 1)),
    WheelSpec(ks=(1, 2, 3), ls=(1, 1, 1)),
]


def test_per_hub_counts_match_oracle():
    rng = np.random.default_rng(5)
    for trial in range(8):
        n = int(rng.integers(6, 16))
        # dense enough that triangles are common: two distinct paths on one
        # vertex set must both count
        a = random_dense(n, rng.uniform(0.3, 0.7), rng)
        g = graph_from_dense(a)
        for spec in SPECS:
            got = wheel_counts_per_hub(g, spec, budget=None)
            for i in range(n):
                assert int(got[i]) == oracle_hub_count(a, spec, i), (trial, spec.name(), i)


def test_per_hub_counts_past_the_pattern_bound_match_oracle():
    # (2,5) has order 11, past PatternGraph's bound; its layout still counts
    spec = WheelSpec.simple(2, 5)
    a = random_dense(40, 4 / 39, np.random.default_rng(8))
    got = wheel_counts_per_hub(graph_from_dense(a), spec, budget=None)
    want = [oracle_hub_count(a, spec, i) for i in range(40)]
    assert any(want) and [int(c) for c in got] == want


def test_triangle_paths_counted_separately():
    # K3: from any hub there are two 2-edge paths using the same vertex set
    a = np.ones((3, 3), dtype=bool)
    np.fill_diagonal(a, False)
    g = graph_from_dense(a)
    counts = wheel_counts_per_hub(g, WheelSpec.simple(2, 1))
    assert list(counts) == [2, 2, 2]


def test_total_equals_pattern_count_times_multiplicity():
    rng = np.random.default_rng(9)
    for _ in range(6):
        n = int(rng.integers(6, 12))
        a = random_dense(n, 0.4, rng)
        g = graph_from_dense(a)
        for spec in SPECS:
            if spec.p > 7:
                continue
            total = int(sum(int(c) for c in wheel_counts_per_hub(g, spec, budget=None)))
            copies = count_noninduced(g, wheel_to_pattern(spec), budget=None)
            assert total == hub_multiplicity(spec) * copies, spec.name()
            assert wheel_noninduced_count(g, spec, budget=None) == copies


def test_star_counts_closed_form():
    # star graph: center degree n-1, leaves degree 1
    n = 9
    edges = [(0, i) for i in range(1, n)]
    a = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        a[u, v] = a[v, u] = True
    g = graph_from_dense(a)
    for l in (1, 2, 3, 4):
        counts = wheel_counts_per_hub(g, WheelSpec.simple(1, l))
        assert int(counts[0]) == math.comb(n - 1, l)
        assert all(int(c) == (1 if l == 1 else 0) for c in counts[1:])


def test_budget_guard_generic_path():
    rng = np.random.default_rng(2)
    g = graph_from_dense(random_dense(30, 0.5, rng))
    with pytest.raises(BudgetExceededError):
        wheel_counts_per_hub(g, WheelSpec(ks=(2, 3), ls=(2, 1)), budget=10)


def test_budget_bounds_a_keys_work_over_all_hubs():
    # each hub of the union sees only its own K5, whose whole (3,2) count fits
    # the budget; the twenty copies together do not
    spec, k5 = WheelSpec.simple(3, 2), ~np.eye(5, dtype=bool)
    assert not wheel_counts_per_hub(graph_from_dense(k5), spec, budget=400).any()
    union = graph_from_dense(np.kron(np.eye(20, dtype=bool), k5))
    with pytest.raises(BudgetExceededError, match="wheel:k=3,l=2") as exc:
        wheel_counts_per_hub(union, spec, budget=400)
    assert "hub" not in str(exc.value) and "approximation" not in str(exc.value)


def test_object_dtype_on_huge_counts():
    # star with a fat center: binomial(70, 35) overflows int64
    n = 71
    edges = [(0, i) for i in range(1, n)]
    a = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        a[u, v] = a[v, u] = True
    g = graph_from_dense(a)
    counts = wheel_counts_per_hub(g, WheelSpec.simple(1, 35))
    expect = math.comb(70, 35)
    assert expect > 2**63
    assert int(counts[0]) == expect
    assert counts.dtype == object


def test_wheel_total_sums_in_int64_only_where_it_cannot_wrap():
    spec = WheelSpec.simple(1, 2)
    assert hub_multiplicity(spec) == 1
    counts = np.random.default_rng(4).integers(0, 10**6, size=500)
    want = sum(int(c) for c in counts)
    assert hubs.wheel_total(counts, spec, 500) == hubs.wheel_total(counts.astype(object), spec, 500)
    assert hubs.wheel_total(counts, spec, 500)[0] == want
    # 4 hubs near 2^62: an int64 sum would wrap, so the total is taken in Python ints
    near = np.full(4, 2**62 - 1, dtype=np.int64)
    assert hubs.wheel_total(near, spec, 4)[0] == 4 * (2**62 - 1)
    with pytest.raises(InvariantError):
        hubs.wheel_total(np.array([1, 2, 4]), WheelSpec.simple(1, 1), 3)
