import numpy as np
import pytest

from graphmoments import (
    BlockModel,
    BootstrapResult,
    DomainError,
    Graph,
    HubCountCache,
    WheelSpec,
    bootstrap_variance,
    sample_block_model,
    wheel_moment_estimates,
)
from graphmoments import graphstats
from oracles import oracle_bootstrap_replicates, partial_fisher_yates

REF = BlockModel(
    pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.03
)
KEY = WheelSpec.simple(2, 1)


def make(n=400, seed=0):
    g = sample_block_model(REF, n, seed=seed).graph
    cache = HubCountCache.build(g, [KEY, WheelSpec.simple(1, 2)])
    return g, cache


def test_full_sample_m_equals_n_has_zero_variance():
    g, cache = make()
    res = bootstrap_variance(g, cache, KEY, m=g.n, B=16, seed=3)
    assert res.sigma2_hat == 0.0
    # every replicate equals the plug-in estimate on the full sample
    full = wheel_moment_estimates(g, [KEY], estimator="qcheck")[KEY]
    assert np.allclose(res.replicates, full)
    assert res.full_sample_value == pytest.approx(full)


def test_m_equals_n_reproduces_full_sample_value_bit_for_bit():
    # C(500, 7) 7!/3! passes 2^53, so a float-rounded normalizer would show
    model = BlockModel(pi=np.array([1.0]), S=np.array([[1.0]]), rho=12 / 499)
    g = sample_block_model(model, 500, seed=1).graph
    key = WheelSpec.simple(2, 3)
    res = bootstrap_variance(g, HubCountCache.build(g, [key]), key, m=g.n, B=2)
    assert res.replicates.tolist() == [res.full_sample_value] * 2


def test_replicate_sums_past_int64_stay_exact():
    # on K_{1289,1289} each (1,6) count is C(1289, 6), about 6.3e15, and the
    # n of them total 1.6e19 > 2^63: an int64 replicate sum would wrap
    side = 1289
    left, right = np.meshgrid(np.arange(side), np.arange(side, 2 * side))
    g = Graph.from_edges(np.column_stack([left.ravel(), right.ravel()]), 2 * side)
    key = WheelSpec.simple(1, 6)
    res = bootstrap_variance(g, HubCountCache.build(g, [key]), key, m=g.n, B=2)
    assert res.replicates.tolist() == [res.full_sample_value] * 2


def test_seed_determinism():
    g, cache = make()
    r1 = bootstrap_variance(g, cache, KEY, B=50, seed=9)
    r2 = bootstrap_variance(g, cache, KEY, B=50, seed=9)
    assert np.array_equal(r1.replicates, r2.replicates)
    r3 = bootstrap_variance(g, cache, KEY, B=50, seed=10)
    assert not np.array_equal(r1.replicates, r3.replicates)


def test_default_subsample_size():
    g, cache = make(n=500)
    res = bootstrap_variance(g, cache, KEY, B=8, seed=1)
    assert res.m == int(np.ceil(500**0.7))


def test_sigma_positive_and_scales_roughly_with_n():
    g, cache = make(n=300, seed=2)
    res = bootstrap_variance(g, cache, KEY, B=200, seed=5)
    assert res.sigma2_hat > 0
    g2, cache2 = make(n=1200, seed=2)
    res2 = bootstrap_variance(g2, cache2, KEY, B=200, seed=5)
    # variance of the estimator shrinks with n (allow wide slack)
    assert res2.sigma2_hat < res.sigma2_hat


def test_missing_key_raises():
    g, cache = make()
    with pytest.raises(DomainError):
        bootstrap_variance(g, cache, WheelSpec.simple(3, 1))


def test_bad_m_and_B():
    g, cache = make()
    with pytest.raises(DomainError):
        bootstrap_variance(g, cache, KEY, m=0)
    with pytest.raises(DomainError):
        bootstrap_variance(g, cache, KEY, m=g.n + 1)
    with pytest.raises(DomainError):
        bootstrap_variance(g, cache, KEY, B=1)


def test_partial_fisher_yates_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        idx = partial_fisher_yates(30, 12, rng)
        assert idx.shape == (12,)
        assert len(set(idx.tolist())) == 12
        assert idx.min() >= 0 and idx.max() < 30
    # m = n is a full permutation
    idx = partial_fisher_yates(8, 8, rng)
    assert sorted(idx.tolist()) == list(range(8))
    # first coordinate is uniform
    hits = np.zeros(10)
    for _ in range(4000):
        hits[partial_fisher_yates(10, 3, rng)[0]] += 1
    assert hits.min() > 4000 / 10 * 0.7
    assert hits.max() < 4000 / 10 * 1.3


@pytest.mark.parametrize("block_bytes", [graphstats.BLOCK_BYTES, 1])
def test_replicates_match_sequential_oracle_bit_for_bit(monkeypatch, block_bytes):
    # BLOCK_BYTES = 1 forces one replicate per block
    monkeypatch.setattr(graphstats, "BLOCK_BYTES", block_bytes)
    g, cache = make(n=300, seed=6)
    key2 = WheelSpec.simple(1, 2)
    for key, m, B in [(KEY, 1, 5), (KEY, g.n, 3), (key2, 40, 37)]:
        res = bootstrap_variance(g, cache, key, m=m, B=B, seed=m + B)
        assert res.replicates.tolist() == oracle_bootstrap_replicates(cache, key, m, B, m + B)


def test_replicates_match_oracle_across_block_boundaries(monkeypatch):
    g, cache = make(n=300, seed=6)
    m, B = 25, 11
    # rows of (n + 3m) int64s: blocks of 4 replicates, so B is not a multiple
    monkeypatch.setattr(graphstats, "BLOCK_BYTES", 4 * 8 * (g.n + 3 * m) + 7)
    res = bootstrap_variance(g, cache, KEY, m=m, B=B, seed=2)
    assert res.replicates.tolist() == oracle_bootstrap_replicates(cache, KEY, m, B, 2)


def test_result_json_summary():
    g, cache = make()
    res = bootstrap_variance(g, cache, KEY, B=64, seed=21)
    obj = res.to_json()
    assert obj["key"] == KEY.name()
    assert obj["B"] == 64
    assert "normalization" not in obj
    summ = obj["replicates_summary"]
    assert summ["mean"] == pytest.approx(float(np.mean(res.replicates)))
    assert set(summ["quantiles"]) == {"p05", "p25", "p50", "p75", "p95"}
    assert isinstance(res, BootstrapResult)
