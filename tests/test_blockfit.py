import dataclasses
import inspect

import numpy as np
import pytest

from graphmoments import (
    BlockModel,
    DomainError,
    FitConfig,
    FitResult,
    IdentifiabilityError,
    MomentProblemError,
    StageInconsistencyError,
    WheelSpec,
    align_stages,
    atoms_from_moments,
    blockfit,
    fit_block_model,
    iterate_operator,
    nls_refine,
    power_moments,
    recover_S,
    sample_block_model,
    tau,
    tau_forward,
)
from graphmoments.hubs import DEFAULT_BUDGET
from graphmoments.models import canonical_order

REF = BlockModel(
    pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.01
)


def random_model(K, rng, spread=1.0):
    pi = rng.dirichlet(np.ones(K) * 4)
    v = rng.uniform(0.4, 1.8, size=K)
    s = np.outer(v, v) + spread * rng.uniform(0.05, 0.3) * np.eye(K)
    s /= pi @ s @ pi
    return BlockModel(pi=pi, S=s, rho=0.01)


def canonical(model: BlockModel):
    order = model.canonical_order()
    return model.pi[order], model.S[np.ix_(order, order)]


# ---------------------------------------------------------------------------
# atoms


def test_atoms_reference_stage_one():
    # moments 1, 1.0625, 1.1875 -> atoms 0.75/1.25 with equal mass
    atoms, weights, diag = atoms_from_moments([1.0, 1.0625, 1.1875], 2)
    assert np.allclose(atoms, [0.75, 1.25])
    assert np.allclose(weights, [0.5, 0.5])


def test_atoms_round_trip_random():
    rng = np.random.default_rng(0)
    for K in (1, 2, 3, 4):
        for _ in range(20):
            true_atoms = np.sort(rng.uniform(0.1, 2.0, size=K))
            if K > 1 and np.min(np.diff(true_atoms)) < 0.08:
                continue
            w = rng.dirichlet(np.ones(K) * 2)
            if w.min() < 0.05:
                continue
            mm = power_moments(true_atoms, w, 2 * K - 1)
            atoms, weights, _ = atoms_from_moments(mm, K)
            assert np.allclose(atoms, true_atoms, atol=1e-7), K
            assert np.allclose(weights, w, atol=1e-7), K


def test_atoms_point_mass_collapse_raises_moment_problem():
    # two coincident atoms: the Hankel/Vandermonde system degenerates
    mm = power_moments(np.array([1.0, 1.0]), np.array([0.5, 0.5]), 3)
    with pytest.raises(MomentProblemError):
        atoms_from_moments(mm, 2)


def test_atoms_k1():
    atoms, weights, _ = atoms_from_moments([1.0], 1)
    assert atoms[0] == 1.0 and weights[0] == 1.0


def test_atoms_weight_clipping_flagged():
    # nearly-degenerate weight: tiny negative numerical mass gets clipped
    mm = power_moments(np.array([0.7, 1.3]), np.array([1e-12, 1.0 - 1e-12]), 3)
    try:
        atoms, weights, diag = atoms_from_moments(mm, 2)
    except MomentProblemError:
        return  # acceptably refused as ill-posed
    assert weights.min() >= 0
    assert np.isclose(weights.sum(), 1.0)


# ---------------------------------------------------------------------------
# stage alignment and S recovery


def test_align_stages_reference():
    it = iterate_operator(REF, 3)
    stages = []
    for j in range(3):
        vals = it.values[:, j]
        order = np.argsort(vals)
        stages.append((vals[order], REF.pi[order]))
    iterates, diag = align_stages(stages, pi=np.array([0.5, 0.5]))
    assert np.allclose(iterates[:, 0], [0.75, 1.25]) or np.allclose(
        iterates[:, 0], [1.25, 0.75]
    )
    # columns must be consistent rows of the iterate table
    v = iterates[np.argsort(iterates[:, 0])]
    assert np.allclose(v[:, 1], [0.6875, 1.4375])


def test_align_stages_mismatched_weights_raise():
    stages = [
        (np.array([0.75, 1.25]), np.array([0.5, 0.5])),
        (np.array([0.7, 1.4]), np.array([0.9, 0.1])),
    ]
    with pytest.raises(StageInconsistencyError):
        align_stages(stages, pi=np.array([0.5, 0.5]), weight_tol=1e-2)


def test_recover_S_reference():
    it = iterate_operator(REF, 2)
    s, diag = recover_S(REF.pi, it.values)
    assert np.allclose(s, REF.S, atol=1e-10)


def test_recover_S_random_models():
    rng = np.random.default_rng(1)
    for K in (2, 3):
        for _ in range(10):
            model = random_model(K, rng)
            it = iterate_operator(model, K)
            s, _ = recover_S(model.pi, it.values)
            assert np.allclose(s, model.S, atol=1e-8), K


def test_recover_S_degenerate_iterates_raise():
    # constant v^(1): V1 columns collinear with the ones column
    pi = np.array([0.5, 0.5])
    vals = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(IdentifiabilityError):
        recover_S(pi, vals)


def test_recover_S_k1():
    s, _ = recover_S(np.array([1.0]), np.ones((1, 1)))
    assert s[0, 0] == 1.0


# ---------------------------------------------------------------------------
# forward map and refinement


def test_tau_forward_matches_tau_block():
    rng = np.random.default_rng(2)
    model = random_model(3, rng)
    keys = [WheelSpec.simple(k, l) for k in (1, 2, 3) for l in (1, 2)]
    fwd = tau_forward(model.pi, model.S, keys)
    for i, key in enumerate(keys):
        assert fwd[i] == pytest.approx(tau(model, key), rel=1e-12)


def test_nls_never_worse_than_truth_init():
    rng = np.random.default_rng(3)
    model = random_model(2, rng)
    cfg = FitConfig(K=2, seed=0)
    tau_hat = dict(zip(cfg.keys(), tau_forward(model.pi, model.S, cfg.keys())))
    res = nls_refine(tau_hat, (model.pi, model.S), cfg)
    assert res.residual <= 1e-16
    pc, sc = canonical(model)
    assert np.allclose(res.pi, pc, atol=1e-8)
    assert np.allclose(res.S, sc, atol=1e-7)


def test_fits_and_models_share_one_canonical_order():
    rng = np.random.default_rng(12)
    cfg = FitConfig(K=3, seed=0, multistart=1)
    for _ in range(20):
        base = random_model(3, rng)
        perm = rng.permutation(3)
        model = BlockModel(pi=base.pi[perm], S=base.S[np.ix_(perm, perm)], rho=base.rho)
        # the truth order a sweep compares fits against is the same function
        assert model.canonical_order().tolist() == canonical_order(model.pi, model.S).tolist()
        tau_hat = dict(zip(cfg.keys(), tau_forward(model.pi, model.S, cfg.keys())))
        res = nls_refine(tau_hat, (model.pi, model.S), cfg)
        assert canonical_order(res.pi, res.S).tolist() == [0, 1, 2]


def test_nls_flags_nonconvergence_budget(monkeypatch):
    # one evaluation cannot improve on x0, so the fit keeps x0 and the
    # status of x0's own run, which stopped on the evaluation cap
    monkeypatch.setattr(blockfit, "_NLS_MAX_NFEV", 1)
    rng = np.random.default_rng(4)
    model = random_model(2, rng)
    cfg = FitConfig(K=2, seed=0, multistart=1)
    tau_hat = dict(zip(cfg.keys(), tau_forward(model.pi, model.S, cfg.keys())))
    noisy = {k: v * (1 + 0.3) for k, v in tau_hat.items()}
    res = nls_refine(noisy, (np.array([0.6, 0.4]), np.ones((2, 2))), cfg)
    assert res.converged is False
    assert res.diagnostics["nls_status"] == 0
    assert res.residual == res.residual_init


# ---------------------------------------------------------------------------
# full pipeline


def test_population_pipeline_round_trip():
    # exact population moments through the staged recovery restore (pi, S)
    # up to the canonical block order, with no least-squares needed
    rng = np.random.default_rng(5)
    checked = 0
    for K in (2, 3):
        for _ in range(60 if K == 2 else 40):
            model = random_model(K, rng)
            v_all = iterate_operator(model, K).values
            # stage separations must be resolvable in float arithmetic
            if any(np.min(np.diff(np.sort(v_all[:, j]))) < 0.04 for j in range(K)):
                continue
            keys = FitConfig(K=K).keys()
            fwd = tau_forward(model.pi, model.S, keys)
            taus = {k: v for k, v in zip(keys, fwd)}
            stages = []
            for k in range(1, K + 1):
                mom = [taus[WheelSpec.simple(k, l)] for l in range(1, 2 * K)]
                atoms, wts, _ = atoms_from_moments(mom, K)
                stages.append((atoms, wts))
            pi0 = stages[0][1]
            iterates, _ = align_stages(stages, pi0)
            s0, _ = recover_S(pi0, iterates)
            pc, sc = canonical(model)
            assert np.allclose(pi0, pc, atol=1e-6), K
            assert np.allclose(s0, sc, atol=1e-5), K
            checked += 1
    assert checked >= 60


def test_fit_block_model_label_permutation_invariance():
    # the same graph fit twice against relabeled truths: output is canonical
    g = sample_block_model(REF, 1500, seed=21).graph
    cfg = FitConfig(K=2, seed=2, stage_weight_tol=0.08)
    res = fit_block_model(g, cfg)
    pc, sc = canonical(REF)
    assert np.allclose(res.pi, pc, atol=0.06)
    assert np.allclose(res.S, sc, atol=0.25)
    # canonical order: ascending first iterate
    v1 = (res.S * res.pi[None, :]) @ np.ones(2)
    assert v1[0] <= v1[1]


def test_fit_k1_trivial():
    g = sample_block_model(BlockModel(pi=np.array([1.0]), S=np.array([[1.0]]), rho=0.02), 300, seed=7).graph
    res = fit_block_model(g, FitConfig(K=1))
    assert res.pi.tolist() == [1.0]
    assert res.S.tolist() == [[1.0]]
    assert res.converged


def test_fit_empty_graph_raises():
    from graphmoments import Graph, NormalizationError

    with pytest.raises(NormalizationError):
        fit_block_model(Graph.from_edges([], 40), FitConfig(K=2))


def test_fit_result_json_shape():
    g = sample_block_model(REF, 900, seed=4).graph
    res = fit_block_model(g, FitConfig(K=2, seed=1, stage_weight_tol=0.1, on_stage_error="fallback"))
    obj = res.to_json()
    assert set(obj) >= {"K", "pi", "S", "rho_hat", "residual", "converged", "diagnostics"}
    assert len(obj["pi"]) == 2
    assert len(obj["S"]) == 2 and len(obj["S"][0]) == 2
    assert obj["schema_version"] == "1"


def test_fit_config_validation():
    with pytest.raises(DomainError):
        FitConfig(K=0)
    with pytest.raises(DomainError):
        FitConfig(K=2, estimator="nope")
    with pytest.raises(DomainError):
        FitConfig(K=2, multistart=0)
    keys = FitConfig(K=2).keys()
    assert len(keys) == 2 * 3
    assert WheelSpec.simple(2, 3) in keys


def test_fit_settings_are_the_ones_callers_set():
    # stage and solver thresholds are module constants, not settings
    assert [f.name for f in dataclasses.fields(FitConfig)] == [
        "K", "estimator", "weights", "stage_weight_tol", "multistart", "seed", "budget",
        "on_stage_error",
    ]
    assert FitConfig(K=2).budget == DEFAULT_BUDGET
    assert list(inspect.signature(atoms_from_moments).parameters) == ["moments", "K"]
    assert list(inspect.signature(recover_S).parameters) == ["pi", "iterates"]
    assert list(inspect.signature(align_stages).parameters) == ["stages", "pi", "weight_tol"]
