import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmoments import (
    BlockModel,
    Graphon,
    InvalidModelError,
    blockmodel_to_graphon,
    erdos_renyi_model,
    lambda_hat,
    load_model,
    rho_hat,
    sample_block_model,
    sample_graphon,
    save_model,
    tau,
)
from graphmoments.models import _floyd_sample
from oracles import floyd_sample

REF = BlockModel(
    pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.01
)


def test_pair_decode_follows_combinations_order():
    from graphmoments.models import _decode_triangular

    for g in range(2, 30):
        pairs = list(itertools.combinations(range(g), 2))
        i, j = _decode_triangular(np.arange(len(pairs), dtype=np.int64), g)
        assert list(zip(i.tolist(), j.tolist())) == pairs, g


@st.composite
def floyd_cases(draw):
    """(total, k, seed) with k at 0, 1, total - 1 and total where the loop
    oracle can afford it, and totals up to 10^9."""
    total = draw(st.one_of(st.integers(1, 2000), st.integers(1, 10**9)))
    cap = min(total, 2000)
    edges = [0, 1] + ([total - 1, total] if total <= 2000 else [])
    k = draw(st.one_of(st.sampled_from(edges), st.integers(0, cap)))
    return total, k, draw(st.integers(0, 2**32 - 1))


def _assert_same_draw(total, k, seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    out = _floyd_sample(fast, total, k)
    assert np.array_equal(out, floyd_sample(slow, total, k))
    assert out.dtype == np.int64
    assert fast.bit_generator.state == slow.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(floyd_cases())
def test_floyd_sample_matches_the_sequential_loop(case):
    _assert_same_draw(*case)


@pytest.mark.parametrize("total, k", [(50000, 50000), (50000, 49999), (60000, 30000), (10**9, 50000)])
def test_floyd_sample_matches_the_sequential_loop_at_scale(total, k):
    # k = total is a saturated cell: nearly every step collides through a chain
    _assert_same_draw(total, k, seed=7)


def test_model_validation():
    with pytest.raises(InvalidModelError):
        BlockModel(pi=np.array([0.6, 0.5]), S=np.eye(2), rho=0.1)
    with pytest.raises(InvalidModelError):
        BlockModel(pi=np.array([0.5, 0.5]), S=np.array([[1.0, 2.0], [0.5, 1.0]]), rho=0.1)
    with pytest.raises(InvalidModelError):
        BlockModel(pi=np.array([0.5, 0.5]), S=-np.ones((2, 2)), rho=0.1)
    # normalization sum pi_a pi_b S_ab = 1 enforced
    with pytest.raises(InvalidModelError):
        BlockModel(pi=np.array([0.5, 0.5]), S=np.full((2, 2), 1.3), rho=0.1)
    with pytest.raises(InvalidModelError):
        BlockModel(pi=np.array([0.5, 0.5]), S=np.full((2, 2), 1.0), rho=1.5)


def test_er_model_is_constant_one():
    er = erdos_renyi_model(0.02)
    assert er.K == 1
    assert er.S[0, 0] == 1.0
    assert er.rho == 0.02


def test_canonical_order_sorts_by_first_iterate():
    order = REF.canonical_order()
    # block 1 has the smaller degree profile (v1 = 0.75 < 1.25)
    assert list(order) == [1, 0]


def test_sampler_is_deterministic_and_respects_density():
    out1 = sample_block_model(REF, 800, seed=42)
    out2 = sample_block_model(REF, 800, seed=42)
    assert out1.graph == out2.graph
    out3 = sample_block_model(REF, 800, seed=43)
    assert out3.graph != out1.graph
    # density concentrates near rho
    assert rho_hat(out1.graph) == pytest.approx(REF.rho, rel=0.15)


def test_sampler_edge_probabilities_by_block_pair():
    # with latents kept, empirical within/between densities track rho * S
    model = BlockModel(
        pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.05
    )
    out = sample_block_model(model, 2500, seed=5, keep_latents=True)
    g = out.graph
    order = model.canonical_order()
    bounds = np.cumsum(model.pi[order])
    blocks = np.minimum(np.searchsorted(bounds, out.xi, side="right"), model.K - 1)
    s_can = model.S[np.ix_(order, order)]
    counts = np.zeros((2, 2))
    totals = np.zeros((2, 2))
    for a in range(2):
        for b in range(2):
            ia, ib = np.flatnonzero(blocks == a), np.flatnonzero(blocks == b)
            sub = 0
            for i in ia:
                sub += np.isin(g.neighbors(i), ib).sum()
            if a == b:
                # neighbors scan sees each within-block edge twice
                totals[a, b] = len(ia) * (len(ia) - 1)
            else:
                totals[a, b] = len(ia) * len(ib)
            counts[a, b] = sub
    emp = counts / totals
    assert np.allclose(emp, model.rho * s_can, rtol=0.1)


def test_latents_only_on_request():
    assert sample_block_model(REF, 50, seed=0).xi is None
    out = sample_block_model(REF, 50, seed=0, keep_latents=True)
    assert out.xi.shape == (50,)
    assert np.all((out.xi >= 0) & (out.xi < 1))


def test_graphon_sampling_matches_equivalent_blockmodel():
    w = blockmodel_to_graphon(REF, resolution=64)
    # same tau for low moments
    for key in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert tau(w, key) == pytest.approx(tau(REF, key), rel=1e-9)
    out = sample_graphon(w, 0.01, 600, seed=9)
    assert rho_hat(out.graph) == pytest.approx(0.01, rel=0.25)


def test_graphon_validation():
    with pytest.raises(InvalidModelError):
        Graphon(grid=np.array([[1.0, 0.5], [0.6, 1.0]]))  # asymmetric
    with pytest.raises(InvalidModelError):
        Graphon(grid=-np.ones((2, 2)))


def test_saturating_cells_clip_to_one():
    # block models validate rho * max(S) <= 1 at construction
    with pytest.raises(InvalidModelError):
        BlockModel(
            pi=np.array([0.5, 0.5]), S=np.array([[3.0, 0.2], [0.2, 0.6]]), rho=0.4
        )
    # graphon sampling clips rho * w at 1 instead: the dense diagonal block
    # becomes a clique
    model = BlockModel(
        pi=np.array([0.5, 0.5]), S=np.array([[3.0, 0.2], [0.2, 0.6]]), rho=0.01
    )
    w = blockmodel_to_graphon(model, resolution=16)
    out = sample_graphon(w, 0.4, 200, seed=1)
    g = out.graph
    # roughly half the vertices live in the w=3 block; they form a clique
    dmax = int(g.degrees.max())
    assert dmax >= 0.4 * g.n
    assert lambda_hat(out.graph) > 0


def test_save_load_round_trip(tmp_path):
    p = tmp_path / "model.json"
    save_model(REF, p)
    back = load_model(p)
    assert isinstance(back, BlockModel)
    assert np.allclose(back.pi, REF.pi)
    assert np.allclose(back.S, REF.S)
    assert back.rho == REF.rho

    w = blockmodel_to_graphon(REF, resolution=8)
    pw = tmp_path / "w.json"
    save_model(w, pw)
    back_w = load_model(pw)
    assert isinstance(back_w, Graphon)
    assert np.allclose(back_w.grid, w.grid)


def test_load_model_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"pi": [0.5, 0.5]}))
    with pytest.raises(InvalidModelError):
        load_model(p)


def test_with_rho():
    m = REF.with_rho(0.2)
    assert m.rho == 0.2
    assert np.allclose(m.S, REF.S)
