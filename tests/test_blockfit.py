import dataclasses
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmoments import (
    BlockModel,
    DomainError,
    FitConfig,
    FitResult,
    IdentifiabilityError,
    MomentProblemError,
    WheelSpec,
    align_stages,
    atoms_from_moments,
    blockfit,
    fit_block_model,
    iterate_operator,
    nls_refine,
    recover_S,
    sample_block_model,
    tau,
    tau_forward,
)
from graphmoments.hubs import DEFAULT_BUDGET
from graphmoments.models import canonical_order
from graphmoments.patterns import wheel_class
from graphmoments.theory import block_iterates, wheel_exponents, wheel_moments

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
            mm = [w @ true_atoms**l for l in range(1, 2 * K)]
            atoms, weights, _ = atoms_from_moments(mm, K)
            assert np.allclose(atoms, true_atoms, atol=1e-7), K
            assert np.allclose(weights, w, atol=1e-7), K


def test_atoms_point_mass_collapse_raises_moment_problem():
    # two coincident atoms: the Hankel/Vandermonde system degenerates
    mm = [np.array([0.5, 0.5]) @ np.array([1.0, 1.0]) ** l for l in (1, 2, 3)]
    with pytest.raises(MomentProblemError):
        atoms_from_moments(mm, 2)


def test_atoms_k1():
    atoms, weights, _ = atoms_from_moments([1.0], 1)
    assert atoms[0] == 1.0 and weights[0] == 1.0


def test_atoms_weight_clipping_flagged():
    # nearly-degenerate weight: tiny negative numerical mass gets clipped
    mm = [np.array([1e-12, 1.0 - 1e-12]) @ np.array([0.7, 1.3]) ** l for l in (1, 2, 3)]
    try:
        atoms, weights, diag = atoms_from_moments(mm, 2)
    except MomentProblemError:
        return  # acceptably refused as ill-posed
    assert weights.min() >= 0
    assert np.isclose(weights.sum(), 1.0)


# ---------------------------------------------------------------------------
# iterate solve and S recovery


def test_align_stages_reference():
    # REF's v^(1) is (0.75, 1.25) ascending; each v^(k) solves one linear
    # system in that order, with no matching across stages
    cfg = FitConfig(K=2)
    keys = cfg.stage_keys()
    taus = dict(zip(keys, tau_forward(REF.pi, REF.S, keys)))
    iterates, diag = align_stages(np.array([0.5, 0.5]), np.array([0.75, 1.25]), taus)
    assert np.allclose(iterates[:, 0], [0.75, 1.25])
    assert np.allclose(iterates[:, 1], [0.6875, 1.4375])
    assert diag["solve_cond"] >= 1.0
    # names and (k, l) pairs work as keys, and a missing key is named
    by_name = {k.name(): v for k, v in taus.items()}
    assert np.array_equal(align_stages(REF.pi, [0.75, 1.25], by_name)[0], iterates)
    del by_name["wheel:k=1+2,l=1+1"]
    with pytest.raises(DomainError, match="k=1\\+2,l=1\\+1"):
        align_stages(REF.pi, [0.75, 1.25], by_name)


def test_stage_keys_are_the_moments_the_stages_read():
    w = WheelSpec.simple
    assert FitConfig(K=1).stage_keys() == [w(1, 1)]
    assert FitConfig(K=2).stage_keys() == [w(1, 1), w(1, 2), w(1, 3), w(2, 1), WheelSpec((1, 2), (1, 1))]
    assert FitConfig(K=3).stage_keys() == [w(1, l) for l in range(1, 6)] + [
        WheelSpec((1, k), (l, 1)) if l else w(k, 1) for k in (2, 3) for l in (0, 1, 2)
    ]


def test_recover_S_reference():
    s, diag = recover_S(REF.pi, iterate_operator(REF, 2))
    assert np.allclose(s, REF.S, atol=1e-10)


def test_recover_S_random_models():
    rng = np.random.default_rng(1)
    for K in (2, 3):
        for _ in range(10):
            model = random_model(K, rng)
            s, _ = recover_S(model.pi, iterate_operator(model, K))
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
    cfg = FitConfig(K=2)
    tau_hat = dict(zip(cfg.keys(), tau_forward(model.pi, model.S, cfg.keys())))
    res = nls_refine(tau_hat, (model.pi, model.S), cfg)
    assert res.residual <= 1e-16
    pc, sc = canonical(model)
    assert np.allclose(res.pi, pc, atol=1e-8)
    assert np.allclose(res.S, sc, atol=1e-7)


def test_fits_and_models_share_one_canonical_order():
    rng = np.random.default_rng(12)
    cfg = FitConfig(K=3)
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
    # a run stopped by the evaluation cap has not converged, even when its
    # steps improved on x0
    rng = np.random.default_rng(4)
    model = random_model(2, rng)
    cfg = FitConfig(K=2)
    tau_hat = dict(zip(cfg.keys(), tau_forward(model.pi, model.S, cfg.keys())))
    noisy = {k: v * (1 + 0.3) for k, v in tau_hat.items()}
    monkeypatch.setattr(blockfit, "_NLS_MAX_NFEV", 5)
    res = nls_refine(noisy, (np.array([0.6, 0.4]), np.array([[2.0, 0.5], [0.5, 1.0]])), cfg)
    assert res.residual < res.residual_init
    assert res.converged is False
    assert res.diagnostics["nls_status"] == 0
    assert res.diagnostics["nls_nfev"] == 5


def test_nls_keeps_x0_and_its_own_status_when_no_start_improves(monkeypatch):
    # tau_(1,1) = pi' S pi = 1 on the whole manifold, so a target that moves
    # only that key leaves x0 optimal: its gradient vanishes and the run
    # stops on gtol at its first evaluation
    monkeypatch.setattr(blockfit, "_NLS_MAX_NFEV", 1)
    cfg = FitConfig(K=2)
    init = (np.array([0.7, 0.3]), np.array([[1.5, 0.4], [0.4, 2.0]]))
    par = blockfit._Parameterization(2)
    pi_x0, s_x0 = par.unpack(par.pack(*init))[:2]
    keys = [WheelSpec.simple(1, 1), *cfg.keys()]  # the fit's keys leave (1,1) out
    tau_hat = dict(zip(keys, tau_forward(pi_x0, s_x0, keys)))
    tau_hat[WheelSpec.simple(1, 1)] += 0.5
    res = nls_refine(tau_hat, init, cfg)
    assert res.residual == res.residual_init == 0.25
    assert res.converged is True and res.diagnostics["nls_status"] > 0
    assert res.diagnostics["nls_nfev"] == 1
    order = canonical_order(pi_x0, s_x0)
    assert np.array_equal(res.pi, pi_x0[order])
    assert np.array_equal(res.S, s_x0[np.ix_(order, order)])


def test_nls_records_its_evaluations_as_ints():
    rng = np.random.default_rng(6)
    model = random_model(2, rng)
    cfg = FitConfig(K=2)
    tau_hat = dict(zip(cfg.keys(), tau_forward(model.pi, model.S, cfg.keys())))
    noisy = {k: v * (1 + 0.1) for k, v in tau_hat.items()}
    res = nls_refine(noisy, (np.array([0.6, 0.4]), np.array([[2.0, 0.5], [0.5, 1.0]])), cfg)
    nfev, njev = res.diagnostics["nls_nfev"], res.diagnostics["nls_njev"]
    assert type(nfev) is int and type(njev) is int
    assert 1 <= nfev <= blockfit._NLS_MAX_NFEV and njev >= 1
    diag = json.loads(json.dumps(res.to_json()))["diagnostics"]
    assert (diag["nls_nfev"], diag["nls_njev"]) == (nfev, njev)
    assert "multistart" not in diag


def test_nls_returns_a_flat_start_unchanged():
    # every first-order change of tau vanishes at a flat S, so the one run
    # stops at its first evaluation and nothing moves the fit off the start
    rng = np.random.default_rng(6)
    model = random_model(2, rng)
    cfg = FitConfig(K=2)
    tau_hat = dict(zip(cfg.keys(), tau_forward(model.pi, model.S, cfg.keys())))
    init = (np.array([0.6, 0.4]), np.ones((2, 2)))
    par = blockfit._Parameterization(2)
    pi_x0, s_x0 = par.unpack(par.pack(*init))[:2]
    res = nls_refine(tau_hat, init, cfg)
    order = canonical_order(pi_x0, s_x0)
    assert np.array_equal(res.pi, pi_x0[order])
    assert np.array_equal(res.S, s_x0[np.ix_(order, order)])
    assert res.diagnostics["nls_status"] == 1 and res.diagnostics["nls_nfev"] == 1
    assert res.residual == res.residual_init > 0


def test_nls_needs_as_many_keys_as_coordinates():
    with pytest.raises(DomainError):
        nls_refine({}, (np.ones(1), np.ones((1, 1))), FitConfig(K=1))
    with pytest.raises(DomainError):
        nls_refine({}, (REF.pi, REF.S), FitConfig(K=2))
    # K=2 has 1 + 3 coordinates and K=3 has 2 + 6
    for K, n_keys in ((2, 3), (3, 7)):
        model = random_model(K, np.random.default_rng(K))
        keys = FitConfig(K=K).keys()[:n_keys]
        tau_hat = dict(zip(keys, tau_forward(model.pi, model.S, keys)))
        with pytest.raises(DomainError, match="coordinates"):
            nls_refine(tau_hat, (model.pi, model.S), FitConfig(K=K))
        more = FitConfig(K=K).keys()[: n_keys + 1]
        tau_hat = dict(zip(more, tau_forward(model.pi, model.S, more)))
        assert nls_refine(tau_hat, (model.pi, model.S), FitConfig(K=K)).residual < 1e-12


def _spec_strategy(K):
    simple = st.builds(WheelSpec.simple, st.integers(1, K), st.integers(1, 2 * K - 1))
    mixed = st.lists(st.integers(1, K), min_size=2, max_size=K, unique=True).flatmap(
        lambda ks: st.builds(
            WheelSpec,
            st.just(tuple(sorted(ks))),
            st.tuples(*[st.integers(1, 3) for _ in ks]),
        )
    )
    return st.one_of(simple, mixed)


@st.composite
def _nls_points(draw):
    K = draw(st.sampled_from([2, 3]))
    # logits up to +-4 give weights as skewed as 0.006 : 0.994
    t = draw(st.lists(st.floats(-4, 4), min_size=K - 1, max_size=K - 1))
    n_u = K * (K + 1) // 2
    u = draw(st.lists(st.floats(0.2, 2.0), min_size=n_u, max_size=n_u))
    zero = draw(st.none() | st.integers(0, n_u - 1))  # an S with a zero entry
    if zero is not None:
        u[zero] = 0.0
    keys = draw(st.lists(_spec_strategy(K), min_size=1, max_size=8, unique=True))
    return K, np.array(t + u), keys


@settings(max_examples=120, deadline=None)
@given(_nls_points())
def test_nls_jacobian_matches_central_differences(point):
    K, x, keys = point
    par = blockfit._Parameterization(K)
    exps = wheel_exponents(keys)
    depth = exps.shape[1]

    def taus(z):
        pi, s, _, _ = par.unpack(z)
        return tau_forward(pi, s, keys)

    pi, s, dpi, ds = par.unpack(x)
    values, dvalues = block_iterates(pi, s, depth, (dpi, ds))
    tau_x, jac = wheel_moments(values, pi, exps, (dpi, dvalues))
    assert np.array_equal(tau_x, taus(x))  # the tau-only path is the same map
    h = 1e-5
    fd = np.column_stack(
        [(taus(x + h * e) - taus(x - h * e)) / (2 * h) for e in np.eye(len(x))]
    )
    scale = np.maximum(np.max(np.abs(jac), axis=1), np.abs(tau_x))
    assert np.all(np.max(np.abs(jac - fd), axis=1) <= 1e-6 * scale)


# ---------------------------------------------------------------------------
# full pipeline


def test_population_pipeline_round_trip():
    # exact population moments through stage 1 and the iterate solve restore
    # (pi, S) up to the canonical block order, with no least-squares needed
    rng = np.random.default_rng(5)
    checked = 0
    for K in (2, 3):
        for _ in range(60 if K == 2 else 40):
            model = random_model(K, rng)
            # stage 1's atoms must be resolvable in float arithmetic
            if np.min(np.diff(np.sort(iterate_operator(model, 1)[:, 0]))) < 0.04:
                continue
            cfg = FitConfig(K=K)
            keys = cfg.stage_keys()
            taus = dict(zip(keys, tau_forward(model.pi, model.S, keys)))
            mom = [taus[WheelSpec.simple(1, l)] for l in range(1, 2 * K)]
            atoms, pi0, _ = atoms_from_moments(mom, K)
            iterates, _ = align_stages(pi0, atoms, taus)
            s0, _ = recover_S(pi0, iterates)
            pc, sc = canonical(model)
            assert np.allclose(pi0, pc, atol=1e-6), K
            assert np.allclose(s0, sc, atol=1e-5), K
            checked += 1
    assert checked >= 60


def test_fit_block_model_label_permutation_invariance():
    # the same graph fit twice against relabeled truths: output is canonical
    g = sample_block_model(REF, 1500, seed=21).graph
    cfg = FitConfig(K=2)
    res = fit_block_model(g, cfg)
    pc, sc = canonical(REF)
    assert np.allclose(res.pi, pc, atol=0.06)
    assert np.allclose(res.S, sc, atol=0.25)
    # canonical order: ascending first iterate
    v1 = (res.S * res.pi[None, :]) @ np.ones(2)
    assert v1[0] <= v1[1]


def _criterion_11_graph(r):
    # criterion 11's graph r at n = 4000, lambda = 20
    seed = int(np.random.SeedSequence([11, 4000, r]).generate_state(1)[0])
    return sample_block_model(BlockModel(pi=REF.pi, S=REF.S, rho=20 / 3999), 4000, seed=seed).graph


def test_default_fit_of_graphs_whose_later_stages_disagreed():
    # matched stage by stage, these graphs' stage 2 weights once missed
    # stage 1's pi by more than 0.01; the iterate solve matches nothing
    pc, sc = canonical(REF)
    for r in (0, 10):
        res = fit_block_model(_criterion_11_graph(r), FitConfig(K=2))
        assert "stage_error" not in res.diagnostics
        assert len(res.diagnostics["stages"]) == 1 and "solve" in res.diagnostics
        assert np.allclose(res.pi, pc, atol=0.05)
        assert np.allclose(res.S, sc, atol=0.15)


def test_fit_k1_trivial():
    g = sample_block_model(BlockModel(pi=np.array([1.0]), S=np.array([[1.0]]), rho=0.02), 300, seed=7).graph
    res = fit_block_model(g, FitConfig(K=1))
    assert res.pi.tolist() == [1.0]
    assert res.S.tolist() == [[1.0]]
    assert res.converged


def test_nls_refine_runs_k1_on_the_general_path():
    one = (np.ones(1), np.ones((1, 1)))
    res = nls_refine({(1, 1): 1.0, (2, 1): 1.2}, one, FitConfig(K=1))
    assert res.pi.tolist() == [1.0] and res.S.tolist() == [[1.0]]
    assert res.residual == pytest.approx(0.04)
    assert res.diagnostics["nls_nfev"] >= 1


def test_fit_over_budget_fails_fast_and_names_the_key():
    from graphmoments import BudgetExceededError

    # K = 4 asks for (2,4), which has no closed form; the fit counts it and
    # raises the search's own error rather than approximate it
    g = sample_block_model(BlockModel(pi=REF.pi, S=REF.S, rho=0.05), 60, seed=2).graph
    with pytest.raises(BudgetExceededError,
                       match="counting wheel:k=2,l=4 exceeded the budget of 10 search nodes"):
        fit_block_model(g, FitConfig(K=4, budget=10))


def test_k3_fits_read_only_closed_form_keys():
    from graphmoments import wheel_moment_estimates
    from graphmoments.hubs import has_closed_form

    cfg = FitConfig(K=3, budget=0)  # nothing may enumerate
    keys = cfg.keys()
    assert len(keys) == 13 and all(has_closed_form(k) for k in keys + cfg.stage_keys())
    pi = np.array([0.25, 0.35, 0.4])
    s = np.array([[6.0, 1.0, 0.5], [1.0, 2.5, 0.5], [0.5, 0.5, 0.8]])
    model = BlockModel(pi=pi, S=s / (pi @ s @ pi), rho=30 / 4999)
    pc, _ = canonical(model)
    for seed in (1, 2):
        g = sample_block_model(model, 5000, seed=seed).graph
        res = fit_block_model(g, cfg)
        assert np.max(np.abs(res.pi - pc)) < 0.05, seed
        # the refinement reads the exact estimates, in the config's key order
        assert res.tau_hat == wheel_moment_estimates(g, keys, budget=None)
        assert list(res.tau_hat) == keys


def test_fit_empty_graph_raises():
    from graphmoments import Graph, NormalizationError

    with pytest.raises(NormalizationError):
        fit_block_model(Graph.from_edges([], 40), FitConfig(K=2))


def test_fit_result_json_shape():
    g = sample_block_model(REF, 900, seed=4).graph
    res = fit_block_model(g, FitConfig(K=2))
    obj = res.to_json()
    assert set(obj) >= {"K", "pi", "S", "rho_hat", "residual", "converged", "diagnostics"}
    assert len(obj["pi"]) == 2
    assert len(obj["S"]) == 2 and len(obj["S"][0]) == 2
    assert obj["schema_version"] == "1"


def test_fit_config_validation():
    with pytest.raises(DomainError):
        FitConfig(K=0)

def test_fit_keys_are_one_per_class_without_the_edge():
    # (2,1) is the path (1,2) and (3,1) the path ((1,1),(2,1)); (1,1) is 1
    w = WheelSpec.simple
    assert FitConfig(K=1).keys() == []
    assert FitConfig(K=2).keys() == [w(1, 2), w(1, 3), w(2, 2), w(2, 3)]
    for K, count in ((2, 4), (3, 13), (4, 25)):
        keys = FitConfig(K=K).keys()
        assert len(keys) == count
        assert [wheel_class(k) for k in keys] == keys and w(1, 1) not in keys
        assert len(set(keys)) == count


def test_fit_settings_are_the_ones_callers_set():
    # stage and solver thresholds are module constants, not settings
    assert [f.name for f in dataclasses.fields(FitConfig)] == [
        "K", "budget", "on_stage_error",
    ]
    assert FitConfig(K=2).budget == DEFAULT_BUDGET
    assert list(inspect.signature(atoms_from_moments).parameters) == ["moments", "K"]
    assert list(inspect.signature(recover_S).parameters) == ["pi", "iterates"]
    assert list(inspect.signature(align_stages).parameters) == ["pi", "atoms", "tau_mixed"]
