"""Empirical moment tables for patterns and wheels.

For a pattern R on p vertices with q edges and N(R) isomorphism classes:

    P_hat = (induced copies)    / (C(n, p) N(R))   — unbiased for P(R)
    Q_hat = (noninduced copies) / (C(n, p) N(R))   — unbiased for Q(R)
    P_check = rho_hat^-q P_hat,  Q_check = rho_hat^-q Q_hat

P_check and Q_check both estimate the density-free moment of an acyclic
pattern; P_check carries an O(lambda/n) truncation bias downward (extra
edges excluded), Q_check does not, so fitting code uses Q_check while
reporting defaults to P_check.

Wheel noninduced counts come from per-hub counting; the per-hub sums are
normalized by the hub-rooted labeling count p!/prod(ls!), which absorbs
the hub multiplicity of single-spoke wheels.  ``moment_table`` is the one
place these normalizations are computed; ``wheel_moment_estimates`` reads
its Q_check or P_check entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import count_induced, count_isomorphism_classes, count_noninduced
from .errors import BudgetExceededError, CapabilityError, DomainError, NormalizationError
from .graph import Graph, rho_hat
from .hubs import DEFAULT_BUDGET, wheel_counts_per_hub, wheel_total
from .patterns import (
    MAX_PATTERN_ORDER,
    PatternGraph,
    WheelSpec,
    hub_multiplicity,
    parse_pattern_name,
    wheel_isomorphism_count,
    wheel_to_pattern,
)
from .theory import tau

#: The schema version of every JSON document the package writes.
SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class MomentEntry:
    """One pattern's counts and normalized moments.

    Count fields are None when that mode was not computed; *_check fields
    are None on an empty graph (no density to normalize by).
    """

    name: str
    p: int
    q: int
    n_isoclasses: int
    induced_count: int | None = None
    noninduced_count: int | None = None
    p_hat: float | None = None
    q_hat: float | None = None
    p_check: float | None = None
    q_check: float | None = None
    tau: float | None = None

    def to_json(self) -> dict:
        return {
            "pattern": self.name,
            "p": self.p,
            "q": self.q,
            "N_R": self.n_isoclasses,
            "raw_count": {
                "induced": self.induced_count,
                "noninduced": self.noninduced_count,
            },
            "p_hat": self.p_hat,
            "q_hat": self.q_hat,
            "p_check": self.p_check,
            "q_check": self.q_check,
            "tau": self.tau,
        }


@dataclass(frozen=True)
class MomentTable:
    """Moment entries plus the graph-level context they were computed in."""

    n: int
    edge_count: int
    rho: float
    entries: tuple[MomentEntry, ...]
    kind: str = "empirical"

    def get(self, name: str) -> MomentEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "n": self.n,
            "edge_count": self.edge_count,
            "rho_hat": self.rho,
            "entries": [e.to_json() for e in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MomentTable":
        entries = tuple(
            MomentEntry(
                name=e["pattern"],
                p=e["p"],
                q=e["q"],
                n_isoclasses=e["N_R"],
                induced_count=e["raw_count"]["induced"],
                noninduced_count=e["raw_count"]["noninduced"],
                p_hat=e["p_hat"],
                q_hat=e["q_hat"],
                p_check=e["p_check"],
                q_check=e["q_check"],
                tau=e.get("tau"),
            )
            for e in obj["entries"]
        )
        return cls(
            n=obj["n"],
            edge_count=obj["edge_count"],
            rho=obj["rho_hat"],
            entries=entries,
            kind=obj.get("kind", "empirical"),
        )


def _as_item(item) -> PatternGraph | WheelSpec:
    if isinstance(item, (PatternGraph, WheelSpec)):
        return item
    if isinstance(item, str):
        return parse_pattern_name(item)
    raise DomainError(f"unsupported pattern item {item!r}")


def moment_table(
    g: Graph,
    patterns,
    mode: str = "both",
    budget: int | None = DEFAULT_BUDGET,
) -> MomentTable:
    """Compute counts and normalized moments for each requested pattern.

    Args:
        g: graph.
        patterns: iterable of PatternGraph, WheelSpec, or their names.
        mode: "induced", "noninduced", or "both" — which counts to compute.
            Induced counting of large patterns on large graphs may exceed
            the budget; request only what you need.
        budget: enumeration budget passed to the counting kernels.

    On an empty graph the *_check fields are None (no density to
    normalize by).

    Raises:
        CapabilityError: induced counts ("induced" or "both") of a wheel of
            order > 10, which no induced counter handles; noninduced wheel
            counts have no such bound.
        BudgetExceededError: a count's enumeration exceeded the budget.
    """
    if mode not in ("induced", "noninduced", "both"):
        raise DomainError(f"bad mode {mode!r}")
    rho = rho_hat(g)
    items = [_as_item(raw) for raw in patterns]
    too_large = [item.name() for item in items if item.p > MAX_PATTERN_ORDER]
    if mode != "noninduced" and too_large:  # only wheels get past PatternGraph's bound
        raise CapabilityError(
            f"induced counting unavailable for {', '.join(too_large)} (order > "
            f"{MAX_PATTERN_ORDER}); the noninduced estimator (qcheck) has no such limit"
        )
    wheels = [item for item in items if isinstance(item, WheelSpec)]
    counts = {w: wheel_counts_per_hub(g, w, budget) for w in wheels} if mode != "induced" else {}

    def checked(value, q):  # the density-free moment, when there is a density
        return value * rho**-q if value is not None and rho > 0 else None

    entries = []
    for item in items:
        name, p, q = item.name(), item.p, item.q
        if isinstance(item, WheelSpec):
            n_iso = wheel_isomorphism_count(item)
            pattern = wheel_to_pattern(item) if mode != "noninduced" else None
        else:
            n_iso, pattern = count_isomorphism_classes(item), item
        denom = math.comb(g.n, p) * n_iso

        noninduced = induced = q_hat = p_hat = None
        if mode != "induced":
            if isinstance(item, WheelSpec):
                total, rooted = wheel_total(counts[item], item, g.n)
                q_hat = total / rooted if rooted else 0.0
                noninduced = total // hub_multiplicity(item)
            else:
                noninduced = count_noninduced(g, pattern, budget)
                q_hat = noninduced / denom if denom else 0.0
        if mode != "noninduced":
            try:
                induced = count_induced(g, pattern, budget)
            except BudgetExceededError as exc:
                raise BudgetExceededError(
                    f"induced count for {name}: {exc}; "
                    "the noninduced estimator (qcheck) is far cheaper for wheels"
                ) from exc
            p_hat = induced / denom if denom else 0.0
        entries.append(
            MomentEntry(
                name=name,
                p=p,
                q=q,
                n_isoclasses=n_iso,
                induced_count=induced,
                noninduced_count=noninduced,
                p_hat=p_hat,
                q_hat=q_hat,
                p_check=checked(p_hat, q),
                q_check=checked(q_hat, q),
            )
        )
    return MomentTable(n=g.n, edge_count=g.edge_count, rho=rho, entries=tuple(entries))


# estimator -> (moment_table mode, entry field)
_ESTIMATORS = {"qcheck": ("noninduced", "q_check"), "pcheck": ("induced", "p_check")}


def wheel_moment_estimates(
    g: Graph,
    keys,
    estimator: str = "qcheck",
    budget: int | None = DEFAULT_BUDGET,
) -> dict[WheelSpec, float]:
    """Density-free moment estimates tau_check for a set of wheel keys.

    The q_check ("qcheck") or p_check ("pcheck") entries of
    ``moment_table``: qcheck uses noninduced per-hub counts (exact at any
    scale for the supported keys); pcheck uses induced counts and is only
    feasible when the pattern is small enough to count induced copies.
    """
    if estimator not in _ESTIMATORS:
        raise DomainError(f"bad estimator {estimator!r}")
    if rho_hat(g) == 0:
        raise NormalizationError("moment estimates need at least one edge")
    mode, field = _ESTIMATORS[estimator]
    specs = [WheelSpec.coerce(key) for key in keys]
    table = moment_table(g, specs, mode=mode, budget=budget)
    return {spec: getattr(entry, field) for spec, entry in zip(specs, table.entries)}


def theory_table(model, keys) -> MomentTable:
    """Population tau values in the same table shape (kind="theory")."""
    entries = []
    for key in keys:
        spec = WheelSpec.coerce(key)
        entries.append(
            MomentEntry(
                name=spec.name(),
                p=spec.p,
                q=spec.q,
                n_isoclasses=wheel_isomorphism_count(spec),
                tau=tau(model, spec),
            )
        )
    return MomentTable(n=0, edge_count=0, rho=0.0, entries=tuple(entries), kind="theory")
