import math
from fractions import Fraction

import numpy as np
import pytest

from graphmoments import (
    BlockModel,
    BudgetExceededError,
    InvariantError,
    MomentTable,
    NormalizationError,
    PatternGraph,
    WheelSpec,
    hub_multiplicity,
    moment_table,
    rho_hat,
    sample_block_model,
    theory_table,
    wheel_isomorphism_count,
    wheel_moment_estimates,
    wheel_noninduced_count,
    wheel_rooted_count,
    wheel_to_pattern,
)
from graphmoments import hubs, moments
from oracles import (
    TupleHistogram,
    connected_pattern_classes,
    exact_qhat,
    graph_from_dense,
    oracle_counts,
    oracle_hub_count,
    random_dense,
    supergraph_classes_identity_terms,
    tuple_automorphisms,
)


def small_graph(seed=17, n=9, p=0.45):
    rng = np.random.default_rng(seed)
    a = random_dense(n, p, rng)
    return a, graph_from_dense(a)


def test_table_normalizations_match_oracle_exactly():
    a, g = small_graph()
    n = g.n
    rho = Fraction(2 * g.edge_count, n * (n - 1))
    patterns = [r for r in connected_pattern_classes(4)]
    table = moment_table(g, patterns, mode="both")
    for r, entry in zip(patterns, table.entries):
        ind, nonind = oracle_counts(a, r)
        n_iso = math.factorial(r.p) // tuple_automorphisms(r)
        assert entry.induced_count == ind
        assert entry.noninduced_count == nonind
        assert entry.p_hat == pytest.approx(float(exact_qhat(ind, n, r.p, n_iso)), rel=1e-14)
        assert entry.q_hat == pytest.approx(float(exact_qhat(nonind, n, r.p, n_iso)), rel=1e-14)
        assert entry.p_check == pytest.approx(entry.p_hat / float(rho) ** r.q, rel=1e-12)
        assert entry.q_check == pytest.approx(entry.q_hat / float(rho) ** r.q, rel=1e-12)


def test_wheel_entries_match_pattern_entries():
    a, g = small_graph(seed=23)
    for spec in (
        WheelSpec.simple(1, 2),
        WheelSpec.simple(2, 1),
        WheelSpec.simple(2, 2),
        WheelSpec(ks=(1, 2), ls=(1, 1)),
    ):
        t_wheel = moment_table(g, [spec], mode="both").entries[0]
        t_pat = moment_table(g, [wheel_to_pattern(spec)], mode="both").entries[0]
        assert t_wheel.noninduced_count == t_pat.noninduced_count
        assert t_wheel.induced_count == t_pat.induced_count
        assert t_wheel.q_hat == pytest.approx(t_pat.q_hat, rel=1e-14)
        assert t_wheel.p_hat == pytest.approx(t_pat.p_hat, rel=1e-14)


def test_per_hub_totals_equal_multiplicity_times_copies():
    a, g = small_graph(seed=29)
    for spec in (WheelSpec.simple(2, 1), WheelSpec.simple(3, 1), WheelSpec(ks=(1, 2), ls=(1, 1))):
        total = sum(oracle_hub_count(a, spec, i) for i in range(g.n))
        entry = moment_table(g, [spec], mode="noninduced").entries[0]
        assert total == hub_multiplicity(spec) * entry.noninduced_count


def test_inversion_identity_in_estimator_space():
    # P-hat of a fixed labeled pattern sums over edge-supersets to Q-hat,
    # computed in exact rational arithmetic
    a, g = small_graph(seed=31, n=8)
    for r in (
        PatternGraph(p=3, edges=((0, 1), (1, 2))),
        PatternGraph(p=4, edges=((0, 1), (1, 2), (2, 3))),
    ):
        hist = TupleHistogram(a, r.p)
        # labeled tuple counts normalized by falling(n, p): stay in Fractions
        q_lab = Fraction(hist.noninduced_tuples(r), math.perm(g.n, r.p))
        total = Fraction(0)
        for s in supergraph_classes_identity_terms(r):
            total += Fraction(hist.induced_tuples(s), math.perm(g.n, r.p))
        assert q_lab == total


def test_estimates_helper_matches_table():
    _, g = small_graph(seed=37)
    keys = [WheelSpec.simple(1, 2), WheelSpec.simple(2, 2)]
    est_q = wheel_moment_estimates(g, keys, estimator="qcheck")
    est_p = wheel_moment_estimates(g, keys, estimator="pcheck")
    table = moment_table(g, keys, mode="both")
    for key, entry in zip(keys, table.entries):
        assert est_q[key] == entry.q_check
        assert est_p[key] == entry.p_check


def test_empty_graph_rejected():
    from graphmoments import Graph

    g = Graph.from_edges([], 6)
    with pytest.raises(NormalizationError):
        wheel_moment_estimates(g, [WheelSpec.simple(1, 1)])
    table = moment_table(g, [WheelSpec.simple(1, 1)], mode="noninduced")
    assert table.entries[0].q_check is None
    assert table.entries[0].q_hat == 0.0


def test_theory_table_taus():
    model = BlockModel(
        pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.01
    )
    keys = [WheelSpec.simple(1, 2), WheelSpec.simple(2, 2)]
    t = theory_table(model, keys)
    assert t.kind == "theory"
    assert t.get("wheel:k=1,l=2").tau == pytest.approx(1.0625)
    assert t.get("wheel:k=2,l=2").tau == pytest.approx(1.26953125)


def test_check_estimators_concentrate_on_reference_model():
    model = BlockModel(
        pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.02
    )
    g = sample_block_model(model, 2500, seed=11).graph
    est = wheel_moment_estimates(
        g,
        [WheelSpec.simple(1, 2), WheelSpec.simple(2, 1), WheelSpec.simple(2, 2)],
        estimator="qcheck",
    )
    assert est[WheelSpec.simple(1, 2)] == pytest.approx(1.0625, abs=0.03)
    assert est[WheelSpec.simple(2, 1)] == pytest.approx(1.0625, abs=0.03)
    assert est[WheelSpec.simple(2, 2)] == pytest.approx(1.26953125, abs=0.08)


def test_budget_error_suggests_cheaper_estimator():
    _, g = small_graph(seed=41, n=9, p=0.5)
    with pytest.raises(BudgetExceededError) as err:
        moment_table(g, [WheelSpec.simple(2, 2)], mode="both", budget=10)
    assert "qcheck" in str(err.value)


def test_induced_counts_past_order_10_are_a_capability_error():
    from graphmoments import CapabilityError

    _, g = small_graph(seed=41, n=9, p=0.5)
    big = WheelSpec.simple(2, 5)  # order 11
    for mode in ("induced", "both"):
        with pytest.raises(CapabilityError, match="qcheck"):
            moment_table(g, [big], mode=mode, budget=10)
    with pytest.raises(CapabilityError):
        wheel_moment_estimates(g, [big], estimator="pcheck")
    assert moment_table(g, [big], mode="noninduced", budget=None).entries[0].p_check is None


def test_table_json_round_trip():
    _, g = small_graph(seed=43)
    keys = [WheelSpec.simple(1, 2), PatternGraph(p=3, edges=((0, 1), (0, 2), (1, 2)))]
    table = moment_table(g, keys, mode="both")
    obj = table.to_json()
    back = MomentTable.from_json(obj)
    assert back.n == table.n
    assert back.rho == pytest.approx(table.rho)
    for e1, e2 in zip(table.entries, back.entries):
        assert e1.name == e2.name
        assert e1.noninduced_count == e2.noninduced_count
        assert e1.q_check == pytest.approx(e2.q_check)
    assert obj["entries"][0]["N_R"] == wheel_isomorphism_count(WheelSpec.simple(1, 2))


def test_rooted_count_is_the_per_hub_normalizer():
    # q_hat computed from per-hub sums uses p!/prod(l_j!) as denominator;
    # equality with the pattern-count normalization is the identity
    # sum_i n_i / rooted = copies / N_R
    _, g = small_graph(seed=47)
    spec = WheelSpec.simple(2, 1)
    assert wheel_rooted_count(spec) == 6
    assert wheel_isomorphism_count(spec) == 3
    assert hub_multiplicity(spec) == 2


def test_per_hub_total_must_divide_by_hub_multiplicity(monkeypatch):
    # (2,1) counts each 2-path from both ends, so its per-hub total is even;
    # every path from per-hub counts to copies or moments checks that
    _, g = small_graph()
    key = WheelSpec.simple(2, 1)
    assert hub_multiplicity(key) == 2

    def odd_total(graph, spec, budget=None):
        counts = np.zeros(graph.n, dtype=np.int64)
        counts[0] = 1
        return counts

    # moments binds the kernel under its own name; wheel_noninduced_count reads hubs'
    for module in (moments, hubs):
        monkeypatch.setattr(module, "wheel_counts_per_hub", odd_total)
    with pytest.raises(InvariantError):
        moment_table(g, [key], mode="noninduced")
    with pytest.raises(InvariantError):
        wheel_moment_estimates(g, [key])
    with pytest.raises(InvariantError):
        wheel_noninduced_count(g, key)
