import numpy as np
import pytest

from graphmoments import (
    BlockModel,
    DomainError,
    WheelSpec,
    blockmodel_to_graphon,
    erdos_renyi_model,
    iterate_operator,
    tau,
    theory_table,
    theta_profile,
    tau_triangle,
    wheel_to_pattern,
)
from graphmoments.theory import wheel_exponents, wheel_moments
from oracles import oracle_tau_block, oracle_tau_grid, oracle_wheel_tau

REF = BlockModel(
    pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.01
)

TRIANGLE_EDGES = ((0, 1), (0, 2), (1, 2))


def random_model(K: int, rng: np.random.Generator) -> BlockModel:
    pi = rng.dirichlet(np.ones(K) * 3)
    s = rng.uniform(0.2, 2.0, size=(K, K))
    s = (s + s.T) / 2
    s /= pi @ s @ pi
    return BlockModel(pi=pi, S=s, rho=0.01)


def test_reference_iterates_keep_block_order():
    it = iterate_operator(REF, 2)
    assert np.allclose(it.values[:, 0], [1.25, 0.75])
    assert np.allclose(it.values[:, 1], [1.4375, 0.6875])
    assert np.allclose(it.weights, [0.5, 0.5])


def test_reference_tau_values():
    assert tau(REF, (1, 1)) == pytest.approx(1.0)
    assert tau(REF, (1, 2)) == pytest.approx(1.0625)
    assert tau(REF, (2, 1)) == pytest.approx(1.0625)
    assert tau(REF, (1, 3)) == pytest.approx(1.1875)
    assert tau(REF, (2, 2)) == pytest.approx(1.26953125)
    assert tau(REF, (2, 3)) == pytest.approx(1.647705078125)
    assert tau_triangle(REF) == pytest.approx(1.40625)


def test_first_moment_is_always_one():
    rng = np.random.default_rng(0)
    for K in (1, 2, 3, 4):
        m = random_model(K, rng)
        assert tau(m, (1, 1)) == pytest.approx(1.0, abs=1e-12)


def test_tau_matches_assignment_sum_oracle():
    rng = np.random.default_rng(1)
    keys = [
        WheelSpec.simple(1, 1),
        WheelSpec.simple(1, 2),
        WheelSpec.simple(2, 1),
        WheelSpec.simple(2, 2),
        WheelSpec.simple(3, 1),
        WheelSpec(ks=(1, 2), ls=(1, 1)),
        WheelSpec(ks=(1, 2), ls=(2, 1)),
    ]
    for K in (1, 2, 3):
        model = random_model(K, rng)
        for spec in keys:
            want = oracle_tau_block(model.pi, model.S, wheel_to_pattern(spec))
            assert tau(model, spec) == pytest.approx(want, rel=1e-10), (K, spec.name())


def test_wheel_moments_match_one_key_at_a_time_bit_for_bit():
    # the exponent-matrix map keeps the per-key arithmetic: integer powers,
    # multiplied in ascending spoke length, then one dot with the weights
    rng = np.random.default_rng(8)
    for _ in range(200):
        K = int(rng.integers(1, 5))
        model = random_model(K, rng)
        depth = int(rng.integers(1, 5))
        specs = [WheelSpec.simple(int(rng.integers(1, depth + 1)), int(rng.integers(1, 6)))
                 for _ in range(4)]
        for _ in range(4):
            ks = sorted(rng.choice(np.arange(1, depth + 1), size=min(depth, 2), replace=False))
            specs.append(WheelSpec(tuple(ks), tuple(int(l) for l in rng.integers(1, 5, size=len(ks)))))
        it = iterate_operator(model, depth)
        got = wheel_moments(it.values, it.weights, wheel_exponents(specs))
        want = [oracle_wheel_tau(it.values, it.weights, spec) for spec in specs]
        assert got.tolist() == want


def test_tau_triangle_matches_oracle():
    rng = np.random.default_rng(2)
    from graphmoments import PatternGraph

    tri = PatternGraph(p=3, edges=TRIANGLE_EDGES)
    for K in (1, 2, 3):
        model = random_model(K, rng)
        want = oracle_tau_block(model.pi, model.S, tri)
        assert tau_triangle(model) == pytest.approx(want, rel=1e-10)


def test_tau_block_invariant_under_relabeling():
    rng = np.random.default_rng(3)
    model = random_model(3, rng)
    perm = np.array([2, 0, 1])
    relabeled = BlockModel(
        pi=model.pi[perm], S=model.S[np.ix_(perm, perm)], rho=model.rho
    )
    for key in ((1, 2), (2, 2), (3, 1)):
        assert tau(model, key) == pytest.approx(tau(relabeled, key))
    assert tau_triangle(model) == pytest.approx(tau_triangle(relabeled))


def test_spoke_merge_self_adjointness():
    # <T^a 1, T^b 1> = <T^(a+b) 1, 1>
    rng = np.random.default_rng(4)
    for K in (2, 3):
        model = random_model(K, rng)
        for a, b in ((1, 1), (1, 2), (2, 2), (1, 3)):
            lhs = (
                tau(model, WheelSpec(ks=(a, b), ls=(1, 1)))
                if a != b
                else tau(model, WheelSpec.simple(a, 2))
            )
            rhs = tau(model, (a + b, 1))
            assert lhs == pytest.approx(rhs, rel=1e-10), (K, a, b)


def test_er_taus_are_one():
    er = erdos_renyi_model(0.05)
    for key in ((1, 1), (2, 2), (3, 2)):
        assert tau(er, key) == pytest.approx(1.0)
    assert tau_triangle(er) == pytest.approx(1.0)


def test_graphon_tau_matches_grid_oracle():
    rng = np.random.default_rng(5)
    model = random_model(2, rng)
    w = blockmodel_to_graphon(model, resolution=8)
    for spec in (WheelSpec.simple(1, 2), WheelSpec.simple(2, 1), WheelSpec.simple(2, 2)):
        want = oracle_tau_grid(w.grid, wheel_to_pattern(spec))
        assert tau(w, spec) == pytest.approx(want, rel=1e-9), spec.name()
    from graphmoments import PatternGraph

    tri = PatternGraph(p=3, edges=TRIANGLE_EDGES)
    assert tau_triangle(w) == pytest.approx(oracle_tau_grid(w.grid, tri), rel=1e-9)


def test_graphon_tau_agrees_with_block_tau():
    # exact at any resolution whose cells refine the block boundaries
    pi = np.array([0.25, 0.75])
    s = np.array([[2.56, 0.8], [0.8, 0.88]])
    s /= pi @ s @ pi
    model = BlockModel(pi=pi, S=s, rho=0.02)
    w = blockmodel_to_graphon(model, resolution=16)
    for key in ((1, 2), (2, 2), (2, 3)):
        assert tau(w, key) == pytest.approx(tau(model, key), rel=1e-9)


def test_truncation_caps_kernel():
    # truncating at 1/rho with large rho lowers moments of a spiky kernel
    pi = np.array([0.1, 0.9])
    s = np.array([[56.0, 0.5], [0.5, 0.5]])
    s /= pi @ s @ pi
    model = BlockModel(pi=pi, S=s, rho=1 / 60)
    plain = tau(model, (2, 2))
    cut = tau(model, (2, 2), truncate_rho=1 / 10.0)
    assert cut < plain
    # vanishing density: the cap 1/rho exceeds max(S), truncation inactive
    same = tau(model, (2, 2), truncate_rho=1e-6)
    assert same == pytest.approx(plain)


def test_depth_validation():
    with pytest.raises(DomainError):
        iterate_operator(REF, 0)
    with pytest.raises(DomainError):
        iterate_operator(blockmodel_to_graphon(REF, 4), 0)


def test_non_models_are_rejected_with_domain_error():
    not_a_model = {"pi": [1.0], "S": [[1.0]], "rho": 0.1}
    with pytest.raises(DomainError):
        tau(not_a_model, (1, 1))
    with pytest.raises(DomainError):
        iterate_operator(not_a_model, 2)
    with pytest.raises(DomainError):
        theta_profile(not_a_model, np.array([0.2, 0.7]), 2)
    with pytest.raises(DomainError):
        theory_table(not_a_model, [(1, 1)])
