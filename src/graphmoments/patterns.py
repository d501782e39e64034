"""Pattern graphs, wheel specifications, and the wheels' closed forms.

A pattern is a small simple graph R with no isolated vertices; P(R) and
Q(R) statistics are normalized by N(R), the number of distinct graphs on a
fixed p-element vertex set isomorphic to R, which equals p!/|Aut(R)|.
For a general pattern |Aut(R)| comes from the embedding search in
``counting``.

A (k, l)-wheel is a hub with l vertex-disjoint spokes, each a k-edge path;
the generalized form takes vectors ks/ls with distinct spoke lengths.  For
wheels N(R) has closed forms; note that when the wheel is a bare path
whose hub is not the path midpoint (a single spoke, or exactly two spokes
of unequal lengths), the end-to-end flip halves the naive hub-rooted
count p!/prod(ls!).  The rooted count is still the right normalizer for
per-hub statistics, so both are exposed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import CapabilityError, DomainError, InvariantError

#: Patterns (and the wheels laid out as patterns) stop at this order.
MAX_PATTERN_ORDER = 10


@dataclass(frozen=True, eq=True)
class PatternGraph:
    """Simple graph on vertices 0..p-1 given by its edge set.

    Invariants: no self-loops or duplicate edges, every vertex covered by
    at least one edge, and p <= 10 (automorphism enumeration bound).
    """

    p: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.p < 2:
            raise DomainError("pattern needs at least two vertices")
        if self.p > MAX_PATTERN_ORDER:
            raise CapabilityError(f"pattern order {self.p} exceeds bound {MAX_PATTERN_ORDER}")
        norm = []
        seen = set()
        covered = set()
        for e in self.edges:
            if len(e) != 2:
                raise DomainError(f"bad edge {e!r}")
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise DomainError(f"self-loop at {u}")
            if not (0 <= u < self.p and 0 <= v < self.p):
                raise DomainError(f"edge {e!r} outside 0..{self.p - 1}")
            u, v = (u, v) if u < v else (v, u)
            if (u, v) in seen:
                raise DomainError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            covered.update((u, v))
            norm.append((u, v))
        if covered != set(range(self.p)):
            missing = sorted(set(range(self.p)) - covered)
            raise DomainError(f"isolated pattern vertices {missing}")
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def q(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset, ...]:
        return adjacency(self.p, self.edges)

    def name(self) -> str:
        return "edges:" + ",".join(f"{u}-{v}" for u, v in self.edges)


@dataclass(frozen=True, eq=True)
class WheelSpec:
    """Spoke-length vector ks (distinct, positive) and multiplicities ls."""

    ks: tuple[int, ...]
    ls: tuple[int, ...]

    def __post_init__(self):
        ks = tuple(int(k) for k in self.ks)
        ls = tuple(int(l) for l in self.ls)
        if len(ks) != len(ls) or not ks:
            raise DomainError("ks and ls must be equal-length, non-empty")
        if any(k < 1 for k in ks) or any(l < 1 for l in ls):
            raise DomainError("spoke lengths and multiplicities must be >= 1")
        if len(set(ks)) != len(ks):
            raise DomainError("spoke lengths must be distinct (fold repeats into ls)")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "ls", ls)

    @classmethod
    def simple(cls, k: int, l: int) -> "WheelSpec":
        return cls((k,), (l,))

    @classmethod
    def coerce(cls, key) -> "WheelSpec":
        """A WheelSpec from itself, a "wheel:k=..,l=.." name, a "k,l" string
        or a (k, l) pair of integers; DomainError on anything else."""
        if isinstance(key, WheelSpec):
            return key
        if isinstance(key, str) and key.startswith("wheel:"):
            return parse_pattern_name(key)
        parts = key.split(",") if isinstance(key, str) else key
        try:
            k, l = (int(x) if isinstance(x, str) else operator.index(x) for x in parts)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"bad key {key!r}; use 'k,l' or 'wheel:k=..,l=..'") from exc
        return cls.simple(k, l)

    @property
    def p(self) -> int:
        return sum(k * l for k, l in zip(self.ks, self.ls)) + 1

    @property
    def q(self) -> int:
        return self.p - 1

    @property
    def total_spokes(self) -> int:
        return sum(self.ls)

    @property
    def is_simple(self) -> bool:
        return len(self.ks) == 1

    def name(self) -> str:
        if self.is_simple:
            return f"wheel:k={self.ks[0]},l={self.ls[0]}"
        ks = "+".join(str(k) for k in self.ks)
        ls = "+".join(str(l) for l in self.ls)
        return f"wheel:k={ks},l={ls}"


def adjacency(p: int, edges) -> tuple[frozenset, ...]:
    """Neighbour sets of the graph on vertices 0..p-1 with the given edges."""
    adj = [set() for _ in range(p)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(frozenset(a) for a in adj)


def wheel_layout(spec: WheelSpec) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """A wheel's edges, hub at vertex 0 and spokes one after another, and the
    pairs (u, v) of first vertices of consecutive equal-length spokes.

    Asking image[u] < image[v] of every pair picks one of the prod(l_j!)
    spoke orders of each copy, so a rooted search visits each copy once.
    """
    edges, pairs = [], []
    nxt = 1
    for k, l in zip(spec.ks, spec.ls):
        for s in range(l):
            if s:
                pairs.append((nxt - k, nxt))
            prev = 0
            for _ in range(k):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
    return edges, pairs


def wheel_to_pattern(spec: WheelSpec) -> PatternGraph:
    """Lay out a wheel as a PatternGraph (``wheel_layout``'s edges).

    Only available while the total order stays within the pattern bound;
    per-hub counts search the layout itself, so larger wheels still count.
    """
    if spec.p > MAX_PATTERN_ORDER:
        raise CapabilityError(f"wheel order {spec.p} exceeds pattern bound {MAX_PATTERN_ORDER}")
    return PatternGraph(p=spec.p, edges=tuple(wheel_layout(spec)[0]))


def quotient_by_automorphisms(labelings: int, automorphisms: int) -> int:
    """labelings / |Aut|, which must be exact."""
    if labelings % automorphisms:
        raise InvariantError(f"|Aut| = {automorphisms} does not divide {labelings} labelings")
    return labelings // automorphisms


def _offcenter_path(spec: WheelSpec) -> bool:
    """True when the wheel is a bare path whose hub is not the midpoint.

    Happens for a single spoke (hub at an end) and for exactly two spokes
    of unequal lengths (hub strictly off-center).  In both cases the path
    flip is a graph automorphism that moves the hub.
    """
    if spec.total_spokes == 1:
        return True
    return spec.total_spokes == 2 and len(spec.ks) == 2


def wheel_automorphism_count(spec: WheelSpec) -> int:
    """|Aut| of a wheel: spoke permutations within each length group, times
    the end-to-end flip when the wheel is a path with an off-center hub."""
    a = math.prod(math.factorial(l) for l in spec.ls)
    if _offcenter_path(spec):
        a *= 2
    return a


def wheel_isomorphism_count(spec: WheelSpec) -> int:
    """N(R) for a wheel, via the closed-form automorphism count."""
    return quotient_by_automorphisms(math.factorial(spec.p), wheel_automorphism_count(spec))


def wheel_rooted_count(spec: WheelSpec) -> int:
    """Hub-rooted labeling count p!/prod(ls!).

    Equals N(R) except when the wheel is a path with an off-center hub,
    where N(R) is half this.  Per-hub counts are normalized by this
    quantity.
    """
    return math.factorial(spec.p) // math.prod(math.factorial(l) for l in spec.ls)


def hub_multiplicity(spec: WheelSpec) -> int:
    """Number of vertices of a wheel copy that act as its hub.

    2 when the wheel is a path with an off-center hub (two distinct
    vertices of the same subgraph copy qualify), else 1.  Satisfies
    sum_i per_hub_counts_i = hub_multiplicity * (noninduced copies).
    """
    return 2 if _offcenter_path(spec) else 1


def wheel_class(spec: WheelSpec | PatternGraph) -> WheelSpec | PatternGraph:
    """The key that stands for spec's isomorphism class.

    A wheel with at most two spokes is the path with q edges, read rooted
    at its middle vertex with spokes floor(q/2) and ceil(q/2): (2,1) ->
    (1,2), (3,1) -> ((1,1),(2,1)), and (4,1) and ((1,1),(3,1)) -> (2,2).
    A wheel with three spokes or more has one hub, so it is its own class.
    A pattern that is a path, connected with q = p - 1 and no degree past
    2, reads as the wheel (q,1); any other pattern is its own class (a
    triangle plus a disjoint edge also has q = p - 1 and degrees <= 2).
    """
    if isinstance(spec, PatternGraph):
        adj = spec.adjacency
        if spec.q != spec.p - 1 or max(map(len, adj)) > 2:
            return spec
        reached, frontier = {0}, [0]
        while frontier:
            new = adj[frontier.pop()] - reached
            reached |= new
            frontier.extend(new)
        if len(reached) < spec.p:
            return spec
        spec = WheelSpec.simple(spec.q, 1)
    if spec.total_spokes > 2 or spec.q == 1:  # (1,1) is the one wheel with one edge
        return spec
    short, long = spec.q // 2, spec.q - spec.q // 2
    return WheelSpec.simple(long, 2) if short == long else WheelSpec((short, long), (1, 1))


def parse_pattern_name(name: str) -> PatternGraph | WheelSpec:
    """Inverse of PatternGraph.name()/WheelSpec.name().

    Accepts ``wheel:k=2,l=1`` (simple), ``wheel:k=1+2,l=2+1`` (generalized),
    and ``edges:0-1,1-2`` forms.
    """
    if name.startswith("wheel:"):
        body = name[len("wheel:") :]
        try:
            fields = dict(part.split("=", 1) for part in body.split(","))
            ks = tuple(int(x) for x in fields["k"].split("+"))
            ls = tuple(int(x) for x in fields["l"].split("+"))
        except (ValueError, KeyError) as exc:
            raise DomainError(f"bad wheel name {name!r}") from exc
        return WheelSpec(ks, ls)
    if name.startswith("edges:"):
        body = name[len("edges:") :]
        try:
            edges = tuple(
                tuple(int(x) for x in part.split("-", 1)) for part in body.split(",") if part
            )
        except ValueError as exc:
            raise DomainError(f"bad edge-list name {name!r}") from exc
        if not edges:
            raise DomainError(f"empty edge list in {name!r}")
        p = max(max(e) for e in edges) + 1
        return PatternGraph(p=p, edges=edges)
    raise DomainError(f"unrecognized pattern name {name!r}")
