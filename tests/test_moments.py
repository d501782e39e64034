import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphmoments import (
    BlockModel,
    BudgetExceededError,
    InvariantError,
    NormalizationError,
    PatternGraph,
    WheelSpec,
    hub_multiplicity,
    moment_table,
    rho_hat,
    sample_block_model,
    tau,
    wheel_isomorphism_count,
    wheel_moment_estimates,
    wheel_noninduced_count,
    wheel_rooted_count,
    wheel_to_pattern,
)
from graphmoments import hubs, moments
from graphmoments.patterns import wheel_class
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
        table = moment_table(g, [spec], mode="both")
        t_wheel = table.entries[0]
        t_pat = moment_table(g, [wheel_to_pattern(spec)], mode="both").entries[0]
        assert table.to_json()["entries"][0]["N_R"] == wheel_isomorphism_count(spec)
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
    est = wheel_moment_estimates(g, keys)
    table = moment_table(g, keys, mode="both")
    for key, entry in zip(keys, table.entries):
        assert est[key] == entry.q_check


# wheel keys that are one path rooted at different vertices: P3, P4 and P5
_PATH_CLASSES = [
    [WheelSpec.simple(1, 2), WheelSpec.simple(2, 1)],
    [WheelSpec.simple(3, 1), WheelSpec((1, 2), (1, 1))],
    [WheelSpec.simple(2, 2), WheelSpec((1, 3), (1, 1)), WheelSpec.simple(4, 1)],
]


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 59), st.floats(0.05, 0.5, exclude_max=True), st.integers(0, 2**32 - 1))
def test_keys_of_one_path_have_bit_identical_estimates(n, p, seed):
    # moment_table counts a class once; each key's own per-hub kernel,
    # rooted where the key roots the path, must give the same copies
    _, g = small_graph(seed=seed, n=n, p=p)
    assume(g.edge_count > 0)
    every = [key for keys in _PATH_CLASSES for key in keys]
    est = wheel_moment_estimates(g, every, budget=None)
    table = moment_table(g, every, mode="noninduced", budget=None)
    by_name = {e.name: e for e in table.entries}
    for keys in _PATH_CLASSES:
        assert len({wheel_class(key) for key in keys}) == 1
        assert len({wheel_noninduced_count(g, key, budget=None) for key in keys}) == 1
        assert len({replace(by_name[key.name()], name="") for key in keys}) == 1
        assert len({est[key] for key in keys}) == 1, {key.name(): est[key] for key in keys}


def test_a_path_key_reads_its_class_in_closed_form():
    # (4,1) alone would enumerate; its class (2,2) has a closed form
    _, g = small_graph(seed=43, n=40, p=0.3)
    four, two = (moment_table(g, [WheelSpec.simple(k, l)], mode="noninduced", budget=0).entries[0]
                 for k, l in ((4, 1), (2, 2)))
    assert replace(four, name="") == replace(two, name="")
    assert four.noninduced_count == wheel_noninduced_count(g, WheelSpec.simple(4, 1), budget=None)
    with pytest.raises(BudgetExceededError):
        wheel_noninduced_count(g, WheelSpec.simple(4, 1), budget=0)


def test_path_patterns_are_counted_as_their_wheel_class(monkeypatch):
    # a path given by its edges reads its wheel key's per-hub counts; a
    # triangle plus a disjoint edge also has q = p - 1 and no degree past 2,
    # but it is not connected, so it stays a pattern and is enumerated
    a, g = small_graph(seed=47)

    def enumerate_pattern(*args):
        raise RuntimeError("enumerated")

    monkeypatch.setattr(moments, "count_noninduced", enumerate_pattern)
    rng = np.random.default_rng(47)
    for p in range(2, 7):
        order = rng.permutation(p).tolist()  # the path's vertices out of order
        path = PatternGraph(p, tuple(zip(order, order[1:])))
        assert wheel_class(path) == wheel_class(WheelSpec.simple(p - 1, 1))
        (entry,) = moment_table(g, [path], mode="both").entries
        assert entry.name == path.name()
        assert (entry.induced_count, entry.noninduced_count) == oracle_counts(a, path), p
    tri_edge = PatternGraph(5, ((0, 1), (0, 2), (1, 2), (3, 4)))
    assert wheel_class(tri_edge) == tri_edge
    with pytest.raises(RuntimeError, match="enumerated"):
        moment_table(g, [tri_edge], mode="noninduced")


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
    t = {spec.name(): tau(model, spec) for spec in keys}
    assert t["wheel:k=1,l=2"] == pytest.approx(1.0625)
    assert t["wheel:k=2,l=2"] == pytest.approx(1.26953125)


def test_check_estimators_concentrate_on_reference_model():
    model = BlockModel(
        pi=np.array([0.5, 0.5]), S=np.array([[2.0, 0.5], [0.5, 1.0]]), rho=0.02
    )
    g = sample_block_model(model, 2500, seed=11).graph
    est = wheel_moment_estimates(
        g,
        [WheelSpec.simple(1, 2), WheelSpec.simple(2, 1), WheelSpec.simple(2, 2)],
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
    assert moment_table(g, [big], mode="noninduced", budget=None).entries[0].p_check is None


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
    # (3,1) is counted as ((1,1),(2,1)), which counts each 3-path from both
    # of its inner vertices, so its per-hub total is even; every path from
    # per-hub counts to copies or moments checks that
    _, g = small_graph()
    key = WheelSpec.simple(3, 1)
    assert hub_multiplicity(key) == hub_multiplicity(wheel_class(key)) == 2

    def odd_total(graph, spec, budget=None):
        counts = np.zeros(graph.n, dtype=np.int64)
        counts[0] = 1
        return counts

    # moment_table counts through hubs.wheel_counts, which reads hubs' kernel
    # by name, as wheel_noninduced_count does
    monkeypatch.setattr(hubs, "wheel_counts_per_hub", odd_total)
    with pytest.raises(InvariantError):
        moment_table(g, [key], mode="noninduced")
    with pytest.raises(InvariantError):
        wheel_moment_estimates(g, [key])
    with pytest.raises(InvariantError):
        wheel_noninduced_count(g, key)
