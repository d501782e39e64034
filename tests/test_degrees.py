import numpy as np
import pytest

from graphmoments import (
    BlockModel,
    BudgetExceededError,
    DomainError,
    Graph,
    NormalizationError,
    WheelSpec,
    degree_moment_approx,
    iterate_operator,
    joint_coupling_error,
    m_degrees,
    mallows2_1d,
    sample_block_model,
    theta_profile,
    wheel_moment_estimates,
)
from graphmoments.degrees import falling_factorial_column
from oracles import graph_from_dense, oracle_mdegree, random_dense


def test_m_degrees_match_oracle():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(5, 14))
        a = random_dense(n, rng.uniform(0.2, 0.6), rng)
        g = graph_from_dense(a)
        prof = m_degrees(g, 4, budget=None)
        for i in range(n):
            for m in range(1, 5):
                assert prof.counts[i, m - 1] == oracle_mdegree(a, i, m), (trial, i, m)


def test_cycle_and_path_examples():
    # C4: every vertex sees 2 one-paths, 2 two-paths, 2 three-paths
    c4 = graph_from_dense(
        np.array(
            [
                [0, 1, 0, 1],
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [1, 0, 1, 0],
            ],
            dtype=bool,
        )
    )
    prof = m_degrees(c4, 3)
    assert prof.counts.tolist() == [[2, 2, 2]] * 4
    # P4: ends reach 1/1/1, middles 2/2/1
    p4 = graph_from_dense(
        np.array(
            [
                [0, 1, 0, 0],
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [0, 0, 1, 0],
            ],
            dtype=bool,
        )
    )
    prof = m_degrees(p4, 3)
    assert prof.counts.tolist() == [
        [1, 1, 1],
        [2, 1, 0],
        [2, 1, 0],
        [1, 1, 1],
    ]


def test_closed_forms_match_dfs():
    # the reference is the rooted search of the j-edge path from an endpoint
    from graphmoments.counting import Budget, embeddings
    from graphmoments.patterns import adjacency

    rng = np.random.default_rng(21)
    for _ in range(6):
        g = graph_from_dense(random_dense(int(rng.integers(8, 20)), 0.35, rng))
        fast = m_degrees(g, 3)
        slow = np.column_stack([
            embeddings(g, adjacency(j + 1, [(v, v + 1) for v in range(j)]), Budget(None, "D"),
                       root=True)
            for j in (1, 2, 3)
        ])
        assert np.array_equal(fast.counts, slow)


def test_normalized_profile_scaling():
    g = graph_from_dense(random_dense(12, 0.4, np.random.default_rng(1)))
    prof = m_degrees(g, 2)
    lam = prof.mean_degree
    expect = prof.counts / np.array([lam, lam**2])
    assert np.allclose(prof.normalized(), expect)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_no_vertices_give_empty_counts_and_no_normalized_profile(m):
    # as on an edgeless graph: mean degree 0, so no scale-free profile
    for n in (0, 3):
        prof = m_degrees(Graph.from_edges(np.zeros((0, 2), np.int64), n), m)
        assert prof.counts.shape == (n, m) and not prof.counts.any()
        assert prof.mean_degree == 0.0
        with pytest.raises(NormalizationError):
            prof.normalized()


def test_budget_guard():
    g = graph_from_dense(random_dense(40, 0.6, np.random.default_rng(4)))
    with pytest.raises(BudgetExceededError):
        m_degrees(g, 5, budget=100)


def test_theta_profile_respects_block_relabeling():
    # same model written in two block orders must give identical profiles
    pi = np.array([0.3, 0.7])
    s = np.array([[1.8, 0.8], [0.8, 0.9]])
    scale = float(pi @ s @ pi)
    m1 = BlockModel(pi=pi, S=s / scale, rho=0.05)
    m2 = BlockModel(pi=pi[::-1].copy(), S=(s / scale)[::-1, ::-1].copy(), rho=0.05)
    xi = np.linspace(0.01, 0.99, 23)
    t1 = theta_profile(m1, xi, 3)
    t2 = theta_profile(m2, xi, 3)
    assert np.allclose(t1, t2)


def test_theta_profile_matches_sampled_blocks():
    # vertices in the same canonical interval share theta rows equal to the
    # operator iterates of their block
    model = BlockModel(
        pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.02
    )
    out = sample_block_model(model, 400, seed=3, keep_latents=True)
    theta = theta_profile(model, out.xi, 2)
    values = iterate_operator(model, 2)
    order = model.canonical_order()
    bounds = np.cumsum(model.pi[order])
    for i in range(0, 400, 37):
        c = int(np.searchsorted(bounds, out.xi[i], side="right"))
        assert np.allclose(theta[i], values[order[min(c, 1)]])


def test_coupling_error_zero_iff_matched():
    model = BlockModel(
        pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.05
    )
    xi = np.array([0.1, 0.6, 0.9])
    theta = theta_profile(model, xi, 2)

    class FakeProfile:
        counts = theta.copy()
        mean_degree = 1.0

        def normalized(self):
            return self.counts

    assert joint_coupling_error(FakeProfile(), theta) == 0.0


def test_mallows_known_values():
    a = np.array([0.0, 1.0])
    b = np.array([1.0, 2.0])
    assert mallows2_1d(a, b) == pytest.approx(1.0)
    assert mallows2_1d(a, a) == 0.0
    # translation moves the distance by exactly |c|
    rng = np.random.default_rng(8)
    x = rng.normal(size=200)
    assert mallows2_1d(x, x + 2.5) == pytest.approx(2.5)
    # scaling couples sorted against sorted
    s = 1.7
    xs = np.sort(x)
    assert mallows2_1d(x, s * x) == pytest.approx(
        float(np.sqrt(np.mean((xs - s * xs) ** 2)))
    )


def test_mallows_unequal_sizes():
    # quantile coupling handles different sample sizes exactly
    a = np.array([0.0, 1.0])
    b = np.array([0.0, 0.0, 3.0, 3.0])
    # F_a^{-1} = 0 on (0,.5), 1 after; F_b^{-1} = 0 on (0,.5), 3 after
    assert mallows2_1d(a, b) == pytest.approx(np.sqrt(0.5 * (1.0 - 3.0) ** 2))
    # refinement invariance: duplicating a sample leaves the law unchanged
    c = np.array([0.0, 1.0, 0.0, 1.0])
    assert mallows2_1d(a, c) == pytest.approx(0.0)


def test_falling_factorial_and_degree_approx():
    # int64 while the powers fit, Python ints past 2^62
    assert falling_factorial_column(np.array([5, 2]), 3).tolist() == [60, 0]
    big = 2**21
    assert falling_factorial_column(np.array([5, 2, big]), 3).tolist() == [
        60, 0, big * (big - 1) * (big - 2)]
    g = graph_from_dense(random_dense(60, 0.25, np.random.default_rng(5)))
    prof = m_degrees(g, 3)
    # (1,1) normalizes to exactly one
    assert degree_moment_approx(prof, (1, 1)) == pytest.approx(1.0, abs=0)
    from graphmoments import wheel_counts_per_hub

    # k=1 numerator identity on any graph: sum_i (d_i)_l = l! * sum_i C(d_i, l)
    import math

    for l in (1, 2, 3, 4):
        lhs = sum(math.perm(int(d), l) for d in g.degrees)
        hubs = wheel_counts_per_hub(g, WheelSpec.simple(1, l))
        assert lhs == math.factorial(l) * int(sum(int(c) for c in hubs)), l
    # the full estimates differ only through the finite-n normalization:
    # approx / tau_check = prod_{j=1..l-1} (n-1-j)/(n-1) for k=1
    n = g.n
    for l in (2, 3):
        approx = degree_moment_approx(prof, WheelSpec.simple(1, l))
        exact = wheel_moment_estimates(g, [WheelSpec.simple(1, l)])[WheelSpec.simple(1, l)]
        ratio = math.prod((n - 1 - j) / (n - 1) for j in range(1, l))
        assert approx == pytest.approx(exact * ratio, rel=1e-12), l
