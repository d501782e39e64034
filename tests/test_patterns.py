import itertools
import math

import pytest

from graphmoments import (
    DomainError,
    Graph,
    PatternGraph,
    WheelSpec,
    automorphism_count,
    count_isomorphism_classes,
    count_noninduced,
    hub_multiplicity,
    parse_pattern_name,
    wheel_automorphism_count,
    wheel_isomorphism_count,
    wheel_rooted_count,
    wheel_to_pattern,
)
from graphmoments.patterns import wheel_class
from oracles import connected_pattern_classes, tuple_automorphisms


def all_wheel_specs(pmax: int = 10):
    """Every wheel spec with distinct spoke lengths and order <= pmax."""
    out = []
    for nparts in (1, 2, 3):
        for ks in itertools.combinations(range(1, pmax), nparts):
            for ls in itertools.product(range(1, pmax), repeat=nparts):
                if sum(k * l for k, l in zip(ks, ls)) + 1 <= pmax:
                    out.append(WheelSpec(ks=ks, ls=ls))
    return out


def test_pattern_validation():
    with pytest.raises(DomainError):
        PatternGraph(p=3, edges=((0, 1),))  # vertex 2 uncovered
    with pytest.raises(DomainError):
        PatternGraph(p=2, edges=((0, 0),))
    with pytest.raises(DomainError):
        PatternGraph(p=2, edges=((0, 1), (1, 0)))


def test_automorphisms_match_oracle_on_corpus():
    for r in connected_pattern_classes(5):
        assert automorphism_count(r) == tuple_automorphisms(r), r.name()


def test_isomorphism_class_count_examples():
    tri = PatternGraph(p=3, edges=((0, 1), (0, 2), (1, 2)))
    assert automorphism_count(tri) == 6
    assert count_isomorphism_classes(tri) == 1
    path3 = PatternGraph(p=3, edges=((0, 1), (1, 2)))
    assert count_isomorphism_classes(path3) == 3
    star = PatternGraph(p=4, edges=((0, 1), (0, 2), (0, 3)))
    assert count_isomorphism_classes(star) == 4


def test_wheel_order_and_name():
    w = WheelSpec.simple(2, 3)
    assert w.p == 7 and w.q == 6
    assert w.name() == "wheel:k=2,l=3"
    mixed = WheelSpec(ks=(1, 2), ls=(2, 1))
    assert mixed.p == 1 + 2 + 2
    assert mixed.name() == "wheel:k=1+2,l=2+1"


def test_wheel_spec_validation():
    with pytest.raises(DomainError):
        WheelSpec(ks=(1, 1), ls=(2, 1))  # duplicate spoke length
    with pytest.raises(DomainError):
        WheelSpec(ks=(0,), ls=(1,))
    with pytest.raises(DomainError):
        WheelSpec(ks=(1, 2), ls=(1,))


def test_wheel_key_coercion():
    two_one = WheelSpec.simple(2, 1)
    for key in (two_one, "2,1", (2, 1), "wheel:k=2,l=1"):
        assert WheelSpec.coerce(key) == two_one
    assert WheelSpec.coerce("wheel:k=1+2,l=2+1") == WheelSpec(ks=(1, 2), ls=(2, 1))
    for bad in ("2", "a,b", (1, 2, 3), (2.5, 1), 5, "edges:0-1,1-2"):
        with pytest.raises(DomainError, match="use 'k,l' or 'wheel:k=..,l=..'"):
            WheelSpec.coerce(bad)
    with pytest.raises(DomainError):
        WheelSpec.coerce("wheel:k=2")


def test_wheel_to_pattern_structure():
    r = wheel_to_pattern(WheelSpec.simple(2, 2))
    assert r.p == 5
    # hub 0 has the two spoke starts as neighbors
    assert sorted(v for e in r.edges for v in e if 0 in e and v != 0) == [1, 3]


def test_wheel_automorphisms_match_pattern_oracle():
    for spec in all_wheel_specs(10):
        r = wheel_to_pattern(spec)
        assert wheel_automorphism_count(spec) == automorphism_count(r), spec.name()
        assert wheel_isomorphism_count(spec) == count_isomorphism_classes(r), spec.name()


def test_offcenter_path_hub_multiplicity():
    # single spoke: the wheel is a path rooted at an end
    assert hub_multiplicity(WheelSpec.simple(3, 1)) == 2
    # two spokes of unequal lengths: a path rooted off-center
    assert hub_multiplicity(WheelSpec(ks=(1, 2), ls=(1, 1))) == 2
    # everything else roots at a degree-distinguished hub
    assert hub_multiplicity(WheelSpec.simple(1, 2)) == 1
    assert hub_multiplicity(WheelSpec.simple(2, 2)) == 1
    assert hub_multiplicity(WheelSpec(ks=(1, 2), ls=(2, 1))) == 1


def test_rooted_count_and_multiplicity_identity():
    for spec in all_wheel_specs(9):
        laut = math.prod(math.factorial(l) for l in spec.ls)
        assert wheel_rooted_count(spec) == math.factorial(spec.p) // laut
        assert wheel_automorphism_count(spec) == laut * hub_multiplicity(spec)
        # hence rooted = classes * hub multiplicity
        assert wheel_rooted_count(spec) == wheel_isomorphism_count(spec) * hub_multiplicity(spec)


def test_wheel_class_is_the_isomorphism_class():
    # two wheels with as many vertices are isomorphic exactly when one
    # embeds in the other, as both have p - 1 edges
    def embeds(a, b):
        host = Graph.from_edges(wheel_to_pattern(b).edges, b.p)
        return count_noninduced(host, wheel_to_pattern(a)) > 0

    specs = all_wheel_specs(8)
    for a in specs:
        assert wheel_class(a).p == a.p and wheel_class(wheel_class(a)) == wheel_class(a)
        for b in specs:
            if a.p == b.p:
                assert embeds(a, b) == (wheel_class(a) == wheel_class(b)), (a.name(), b.name())
    # paths are read from their middle vertex, so the class key is balanced
    assert wheel_class(WheelSpec.simple(5, 1)) == WheelSpec((2, 3), (1, 1))
    assert wheel_class(WheelSpec((1, 5), (1, 1))) == WheelSpec.simple(3, 2)


def test_single_spoke_rooted_vs_classes():
    # for one spoke of length k and l = 1 the rooted count is (k+1)!,
    # twice the class count, because either path end can host the root
    spec = WheelSpec.simple(3, 1)
    assert wheel_rooted_count(spec) == 24
    assert wheel_isomorphism_count(spec) == 12


def test_parse_pattern_name_round_trip():
    for name in ("wheel:k=2,l=1", "wheel:k=1+2,l=2+1", "edges:0-1,1-2"):
        item = parse_pattern_name(name)
        assert item.name() == name
    with pytest.raises(DomainError):
        parse_pattern_name("wheel:k=2")
    with pytest.raises(DomainError):
        parse_pattern_name("nonsense")
