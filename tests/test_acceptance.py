"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Criterion 9 was first stated with the gap of the
falling-factorial degree approximation *smaller* on sparser graphs.  That
direction is false: the approximation also counts spoke pairs that overlap
through a shared first vertex, which exist on trees too, and on the
normalized scale this overlap is a 1/lambda term.  The test asserts the
measured direction (the gap shrinks as lambda grows) and the derived rate
(lambda * gap near 1); a companion test pins the overlap count exactly
against a brute-force oracle.  See README ("Acceptance status").
"""
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (  # noqa: E402
    connected_pattern_classes,
    dense_adj,
    graph_from_dense,
    oracle_counts,
    oracle_mdegree,
    oracle_overlapping_2path_pairs,
    random_dense,
)

from graphmoments import (  # noqa: E402
    BlockModel,
    Graph,
    HubCountCache,
    WheelSpec,
    align_stages,
    atoms_from_moments,
    automorphism_count,
    bootstrap_variance,
    count_induced,
    count_noninduced,
    degree_moment_approx,
    falling_factorial,
    fit_block_model,
    FitConfig,
    PatternGraph,
    hub_multiplicity,
    joint_coupling_error,
    m_degrees,
    moment_table,
    recover_S,
    rho_hat,
    sample_block_model,
    supergraphs_on_same_vertices,
    tau,
    theta_profile,
    wheel_counts_per_hub,
    wheel_isomorphism_count,
    wheel_moment_estimates,
    wheel_rooted_count,
    wheel_to_pattern,
)

REF_PI = np.array([0.5, 0.5])
REF_S = np.array([[2.0, 0.5], [0.5, 1.0]])
TAU_21 = 1.0625  # independent quadrature/assignment oracle value, frozen in test_theory


def ref_model(lam: float, n: int) -> BlockModel:
    return BlockModel(pi=REF_PI, S=REF_S, rho=lam / (n - 1))


def er_model(lam: float, n: int) -> BlockModel:
    return BlockModel(pi=np.array([1.0]), S=np.array([[1.0]]), rho=lam / (n - 1))


def seed_of(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def report(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.mark.slow
def test_criterion_01_counting_matches_brute_force():
    classes = connected_pattern_classes(5)
    rng = np.random.default_rng(1)
    checks = 0
    for _ in range(1000):
        n = int(rng.integers(4, 11))
        a = random_dense(n, float(rng.uniform(0.1, 0.8)), rng)
        g = graph_from_dense(a)
        for pat in classes:
            ind, non = oracle_counts(a, pat)
            assert count_induced(g, pat) == ind, (pat.name(), n)
            assert count_noninduced(g, pat) == non, (pat.name(), n)
            checks += 1
    assert report(1, "counting oracle equivalence", True,
                  f"1000 graphs x {len(classes)} pattern classes, {checks} exact checks")


def test_criterion_02_inversion_identity_exact():
    star = wheel_to_pattern(WheelSpec.simple(1, 2))
    tri_pat = PatternGraph(p=3, edges=((0, 1), (1, 2), (0, 2)))
    rng = np.random.default_rng(2)
    for trial in range(100):
        n = int(rng.integers(4, 11))
        a = random_dense(n, float(rng.uniform(0.15, 0.8)), rng)
        g = graph_from_dense(a)
        for r in (star, tri_pat):
            np_ = falling_factorial(n, r.p)
            # embedding counts: copies * |Aut|; exact rational identity
            q_hat = Fraction(count_noninduced(g, r) * automorphism_count(r), np_)
            p_sum = sum(
                Fraction(count_induced(g, s) * automorphism_count(s), np_)
                for s in supergraphs_on_same_vertices(r)
            )
            assert q_hat == p_sum, (r.name(), n)
    assert report(2, "noninduced = sum of induced supersets", True,
                  "exact rational identity on 100 graphs, 2-star and triangle")


def test_criterion_03_labeled_copy_closed_forms():
    # 2-star: 3 labelings
    star = WheelSpec.simple(1, 2)
    assert wheel_isomorphism_count(star) == 3
    # single-length wheels up to 10 vertices: the quoted closed form
    # (kl+1)!/l! counts rooted (hub-marked) copies; it equals the
    # isomorphism count exactly when the hub is forced (l >= 2).  For
    # l = 1 the pattern is a path, either endpoint's neighbor chain works,
    # so the closed form is 2x the isomorphism count.
    l1_cases = 0
    for k in range(1, 10):
        for l in range(1, 10):
            p = k * l + 1
            if p > 10:
                continue
            spec = WheelSpec.simple(k, l)
            closed = math.factorial(p) // math.factorial(l)
            assert wheel_rooted_count(spec) == closed, spec.name()
            if l >= 2:
                assert wheel_isomorphism_count(spec) == closed, spec.name()
            else:
                assert hub_multiplicity(spec) == 2
                assert 2 * wheel_isomorphism_count(spec) == closed, spec.name()
                l1_cases += 1
    # generalized wheels: p!/prod(l_j!) is the rooted-copy count
    rng = np.random.default_rng(3)
    done = 0
    while done < 10:
        ks = tuple(sorted(rng.choice(range(1, 5), size=int(rng.integers(2, 4)), replace=False).tolist()))
        ls = tuple(int(x) for x in rng.integers(1, 4, size=len(ks)))
        p = 1 + sum(k * l for k, l in zip(ks, ls))
        if p > 10:
            continue
        spec = WheelSpec(ks, ls)
        closed = math.factorial(p)
        for l in ls:
            closed //= math.factorial(l)
        assert wheel_rooted_count(spec) == closed, spec.name()
        assert wheel_isomorphism_count(spec) * hub_multiplicity(spec) == closed, spec.name()
        # cross-check against the generic automorphism counter
        pat = wheel_to_pattern(spec)
        assert wheel_isomorphism_count(spec) == math.factorial(p) // automorphism_count(pat)
        done += 1
    assert report(3, "labeled-copy closed forms", True,
                  f"2-star=3; (kl+1)!/l! for wheels with p<=10 as rooted counts "
                  f"(= isomorphism count for l>=2; 2x it for the {l1_cases} "
                  f"path cases l=1); 10 generalized wheels")


def _random_conditioned_model(rng, K):
    while True:
        pi = rng.dirichlet(np.full(K, 4.0))
        v = rng.uniform(0.5, 1.5, size=K)
        S = np.outer(v, v) + 0.15 * np.diag(rng.uniform(0.2, 1.0, size=K))
        S = S / (pi @ S @ pi)
        m = BlockModel(pi=pi, S=S, rho=0.5 / S.max())
        if pi.min() < 0.12:
            continue
        if K > 1 and np.diff(np.sort(S @ pi)).min() < 0.06:
            continue
        return m


def test_criterion_04_population_round_trip():
    rng = np.random.default_rng(4)
    worst_pi = worst_S = 0.0
    for K in (2, 3):
        for _ in range(50):
            m = _random_conditioned_model(rng, K)
            order = m.canonical_order()
            pi_c, S_c = m.pi[order], m.S[np.ix_(order, order)]
            cfg = FitConfig(K=K)
            taus = {key: tau(m, key) for key in cfg.stage_keys()}
            mom = [taus[WheelSpec.simple(1, l)] for l in range(1, 2 * K)]
            atoms, pi_hat, _ = atoms_from_moments(mom, K)
            iterates, _ = align_stages(pi_hat, atoms, taus)
            S_hat, _ = recover_S(pi_hat, iterates)
            worst_pi = max(worst_pi, float(np.max(np.abs(pi_hat - pi_c))))
            worst_S = max(worst_S, float(np.max(np.abs(S_hat - S_c))))
    ok = worst_pi < 1e-6 and worst_S < 1e-5
    assert report(4, "population round-trip", ok,
                  f"100 models K=2,3: max pi err {worst_pi:.1e} (<1e-6), "
                  f"max S err {worst_S:.1e} (<1e-5)")


def test_criterion_05_estimator_consistency_rate():
    key = WheelSpec.simple(2, 1)
    ns = [500, 1000, 2000, 4000]
    R = 200
    rmse, means, sds = [], [], []
    for n in ns:
        lam = 1.66 * n**0.3  # 10.7 .. 20.0, inside [5, 25]
        errs = np.empty(R)
        for r in range(R):
            g = sample_block_model(ref_model(lam, n), n, seed=seed_of(5, n, r)).graph
            errs[r] = wheel_moment_estimates(g, [key], estimator="qcheck")[key] - TAU_21
        rmse.append(float(np.sqrt(np.mean(errs**2))))
        means.append(float(np.mean(errs)))
        sds.append(float(np.std(errs, ddof=1)))
    slope = float(np.polyfit(np.log(ns), np.log(rmse), 1)[0])
    mean_ok = abs(means[-1]) < 3 * sds[-1] / np.sqrt(R)
    ok = -0.65 <= slope <= -0.35 and mean_ok
    assert report(5, "estimator consistency rate", ok,
                  f"log-log RMSE slope {slope:.3f} in [-0.65,-0.35]; mean at n=4000 "
                  f"= {TAU_21 + means[-1]:.5f} vs {TAU_21} "
                  f"({abs(means[-1]) / (sds[-1] / np.sqrt(R)):.2f} SEs, <3)")


def test_criterion_06_density_estimator_clt():
    n, R, lam = 2000, 500, 20.0
    rho = lam / (n - 1)
    xs = np.empty(R)
    for r in range(R):
        g = sample_block_model(ref_model(lam, n), n, seed=seed_of(6, r)).graph
        xs[r] = np.sqrt(n) * (rho_hat(g) / rho - 1.0)
    skew = float(stats.skew(xs))
    z = (xs - xs.mean()) / xs.std(ddof=1)
    pval = float(stats.kstest(z, "norm").pvalue)
    ok = abs(skew) < 0.3 and pval > 0.01
    assert report(6, "edge-density CLT", ok,
                  f"|skew| {abs(skew):.3f} < 0.3; KS p {pval:.3f} > 0.01")


def test_criterion_07_path_profiles_match_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(3, 9))
        a = random_dense(n, float(rng.uniform(0.1, 0.8)), rng)
        g = graph_from_dense(a)
        prof = m_degrees(g, 4)
        for i in range(n):
            for m in range(1, 5):
                assert prof.counts[i, m - 1] == oracle_mdegree(a, i, m), (n, i, m)
    assert report(7, "path-profile oracle equivalence", True,
                  "500 graphs, n<=8, depths 1..4, exact")


@pytest.mark.slow
def test_criterion_08_profile_coupling_tightens_with_degree():
    n, reps, depth = 5000, 50, 2
    makers = [("er", 0, er_model), ("ref", 1, ref_model)]
    details, ok = [], True
    for name, mid, make in makers:
        medians = []
        for lam in (10.0, 30.0, 100.0):
            vals = np.empty(reps)
            for r in range(reps):
                mdl = make(lam, n)
                s = sample_block_model(mdl, n, seed=seed_of(8, mid, int(lam), r),
                                       keep_latents=True)
                prof = m_degrees(s.graph, depth)
                vals[r] = joint_coupling_error(prof, theta_profile(mdl, s.xi, depth))
            medians.append(float(np.median(vals)))
        ok = ok and medians[0] > medians[1] > medians[2]
        details.append(f"{name}: " + " > ".join(f"{v:.4f}" for v in medians))
    assert report(8, "degree-profile coupling", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_09_degree_approximation_gap_direction():
    # The falling factorial (D_i^(2))_2 counts every ordered pair of distinct
    # 2-paths from hub i; the exact (2,2) count keeps only vertex-disjoint
    # pairs.  Pairs through a common first vertex j contribute sum_j (d_j)_3,
    # and every other overlap needs a triangle or 4-cycle at the hub (O(1/n)).
    # Hence gap ~ (1/n) sum_j (d_j)_3 / lambda^4 ~ 1/lambda: the gap shrinks
    # as graphs get denser, and lambda * gap tends to 1.
    n, reps = 20000, 50
    key = WheelSpec.simple(2, 2)
    gaps = {}
    for lam in (3.0, 30.0):
        arr = np.empty(reps)
        for r in range(reps):
            g = sample_block_model(er_model(lam, n), n, seed=seed_of(9, int(lam), r)).graph
            exact = wheel_moment_estimates(g, [key], estimator="qcheck")[key]
            arr[r] = abs(degree_moment_approx(m_degrees(g, 2), key) - exact)
        gaps[lam] = arr
    frac = float(np.mean(gaps[30.0] < gaps[3.0]))
    scaled = {lam: float(np.median(lam * arr)) for lam, arr in gaps.items()}
    rate_ok = all(0.9 <= v <= 1.1 for v in scaled.values())
    ok = frac >= 0.90 and rate_ok
    report(9, "approximation gap direction and rate", ok,
           f"gap(lam=30) < gap(lam=3) in {frac:.0%} of {reps} pairs (needs >=90%); "
           f"median gaps {np.median(gaps[3.0]):.4f} vs {np.median(gaps[30.0]):.4f}; "
           f"median lam*gap {scaled[3.0]:.3f} at lam=3, {scaled[30.0]:.3f} at lam=30 "
           f"(needs [0.9, 1.1])")
    assert frac >= 0.90, (
        f"gap shrank with density in only {frac:.2f} of pairs: median gaps "
        f"{np.median(gaps[3.0]):.4f} at lam=3 vs {np.median(gaps[30.0]):.4f} at lam=30"
    )
    assert rate_ok, (
        f"median lam*gap {scaled} outside [0.9, 1.1]: the overlap term "
        f"sum_j (d_j)_3 / (n lambda^4) predicts a leading 1/lambda gap"
    )


def _random_tree(n, rng):
    # uniform labeled tree from a random Prufer sequence
    if n <= 2:
        return Graph.from_edges([(0, 1)][: n - 1], num_vertices=n)
    prufer = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=int)
    for v in prufer:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(edges, num_vertices=n)


def test_criterion_09_tree_numerator_identity():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        g = _random_tree(n, rng)
        prof = m_degrees(g, 1)
        d = prof.counts[:, 0]
        for l in (2, 3):
            spec = WheelSpec.simple(1, l)
            per_hub = wheel_counts_per_hub(g, spec)
            approx_num = int(np.sum([falling_factorial(int(x), l) for x in d]))
            exact_num = math.factorial(l) * int(np.sum(per_hub))
            assert approx_num == exact_num, (n, l)
    assert report(9, "tree numerator identity (depth-1 keys)", True,
                  "falling-factorial and star-count numerators equal on 50 random trees")


def test_criterion_09_overlap_identity():
    # (D_i^(2))_2 - 2 n_i^(2,2) is exactly the number of ordered pairs of
    # distinct 2-paths from hub i that overlap; on a tree only pairs through
    # a shared first vertex j overlap, which gives sum_{j~i} (d_j-1)(d_j-2).
    key = WheelSpec.simple(2, 2)
    rng = np.random.default_rng(909)
    tree_overlap = 0
    for trial in range(80):
        n = int(rng.integers(5, 14))
        if trial % 2:
            g = _random_tree(n, rng)
            a = dense_adj(g)
        else:
            a = random_dense(n, float(rng.uniform(0.1, 0.8)), rng)
            g = graph_from_dense(a)
        d, d2 = m_degrees(g, 2).counts.T
        per_hub = wheel_counts_per_hub(g, key)
        for i in range(n):
            gap = falling_factorial(int(d2[i]), 2) - 2 * int(per_hub[i])
            assert gap == oracle_overlapping_2path_pairs(a, i), (trial, n, i)
            if trial % 2:
                assert gap == sum(falling_factorial(int(d[j]) - 1, 2)
                                  for j in g.neighbors(i)), (trial, n, i)
                tree_overlap += gap
    assert tree_overlap > 0
    assert report(9, "overlap identity (2,2)", True,
                  "(D^(2))_2 - 2 n^(2,2) = overlapping 2-path pairs per hub on 40 "
                  f"random graphs and 40 random trees (tree overlap total {tree_overlap})")


def test_criterion_10_subsampling_variance_calibration():
    n, lam = 2000, 20.0
    key = WheelSpec.simple(2, 1)
    sig = np.empty(20)
    for i in range(20):
        seed = seed_of(10, 0, i)
        g = sample_block_model(ref_model(lam, n), n, seed=seed).graph
        cache = HubCountCache.build(g, [key])
        sig[i] = bootstrap_variance(g, cache, key, B=200, seed=seed).sigma2_hat
    pc = np.empty(200)
    for i in range(200):
        g = sample_block_model(ref_model(lam, n), n, seed=seed_of(10, 1, i)).graph
        pc[i] = moment_table(g, [key], mode="both").entries[0].p_check
    med = float(np.median(sig))
    mc = float(np.var(pc, ddof=1))
    ratio = med / mc
    ok = 0.5 <= ratio <= 2.0
    assert report(10, "subsampling variance calibration", ok,
                  f"median sigma2 {med:.2e} vs MC variance {mc:.2e}, "
                  f"ratio {ratio:.2f} in [0.5, 2]")


@pytest.mark.slow
def test_criterion_11_end_to_end_fit():
    lam = 20.0
    order = [1, 0]  # canonical: ascending expected block intensity
    pi_c = REF_PI[order]
    S_c = REF_S[np.ix_(order, order)]
    cfg = FitConfig(K=2)
    med_pi, med_S = [], []
    for n in (1000, 2000, 4000):
        pe, se_ = [], []
        for r in range(50):
            g = sample_block_model(ref_model(lam, n), n, seed=seed_of(11, n, r)).graph
            res = fit_block_model(g, cfg)
            pe.append(float(np.max(np.abs(res.pi - pi_c))))
            se_.append(float(np.max(np.abs(res.S - S_c))))
        med_pi.append(float(np.median(pe)))
        med_S.append(float(np.median(se_)))
    ok = (
        med_pi[-1] <= 0.05
        and med_S[-1] <= 0.15
        and med_pi[0] > med_pi[1] > med_pi[2]
        and med_S[0] > med_S[1] > med_S[2]
    )
    assert report(11, "end-to-end fit", ok,
                  f"median pi err {med_pi[-1]:.4f} (<=0.05), median S err "
                  f"{med_S[-1]:.4f} (<=0.15) at n=4000; medians over n=1000,2000,4000 "
                  f"pi {med_pi} S {med_S} decreasing")


@pytest.mark.slow
def test_criterion_12_bounded_degree_fit_consistency():
    # The paper's consistency covers average degree Omega(1).  At fixed lambda
    # the moment estimates are asymptotically normal with sd ~ n^(-1/2) and the
    # fit is a smooth map of them, so the median pi error falls like n^(-1/2):
    # its log-log slope is held to criterion 5's band, -0.5 +- 0.15.
    lam = 5.0
    order = [1, 0]  # canonical: ascending expected block intensity
    pi_c = REF_PI[order]
    S_c = REF_S[np.ix_(order, order)]
    cfg = FitConfig(K=2)
    ns = [2000, 8000, 32000, 128000]
    med_pi, med_S = [], []
    for n in ns:
        pe, se_ = [], []
        for r in range(50):
            g = sample_block_model(ref_model(lam, n), n, seed=seed_of(12, n, r)).graph
            res = fit_block_model(g, cfg)
            pe.append(float(np.max(np.abs(res.pi - pi_c))))
            se_.append(float(np.max(np.abs(res.S - S_c))))
        med_pi.append(float(np.median(pe)))
        med_S.append(float(np.median(se_)))
    slope = float(np.polyfit(np.log(ns), np.log(med_pi), 1)[0])
    ok = (
        all(a > b for a, b in zip(med_pi, med_pi[1:]))
        and all(a > b for a, b in zip(med_S, med_S[1:]))
        and -0.65 <= slope <= -0.35
    )
    assert report(12, "bounded-degree fit consistency", ok,
                  f"lambda={lam:g}, 50 graphs per n in {ns}: median pi err "
                  f"{[round(x, 4) for x in med_pi]}, median S err "
                  f"{[round(x, 4) for x in med_S]} decreasing; log-log pi slope "
                  f"{slope:.3f} in [-0.65,-0.35]")
