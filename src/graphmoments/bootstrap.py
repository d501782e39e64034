"""Vertex-subsampling bootstrap for normalized moment estimators.

Replicates resample m of the n vertices without replacement and recompute
the hub-count moment estimate from the full-graph per-vertex statistics:

    D-bar* = (1/m) sum_j D_{i_j}
    P-hat* = (n/m) sum_j n_{i_j} / (C(n,p) p!/prod(ls!))
    P-check* = P-hat* rho*^{-q}

with rho* = D-bar*/(n-1), which reproduces the full-sample estimator at
m = n.  The variance estimate sigma2 = (m/n) (1/B) sum_b (P-check*_b
- mean)^2 targets the sampling variance of the full-sample estimator.

Per-hub counts credit each copy to its hub, so the variance depends on the
key's rooting: (1,2) and (2,1), one path, got variances 5.2x apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graphstats
from .errors import DomainError, NormalizationError
from .graph import Graph
from .hubs import DEFAULT_BUDGET, wheel_counts, wheel_total
from .moments import SCHEMA_VERSION
from .patterns import WheelSpec


@dataclass(frozen=True)
class HubCountCache:
    """Per-vertex wheel counts for a key set, plus degrees.

    Totals are exactly consistent with the global counting path because
    they are computed by the same per-hub kernels.
    """

    n: int
    keys: tuple[WheelSpec, ...]
    counts: dict
    degrees: np.ndarray

    @classmethod
    def build(cls, g: Graph, keys, budget: int | None = DEFAULT_BUDGET) -> "HubCountCache":
        specs = tuple(WheelSpec.coerce(k) for k in keys)
        counts = wheel_counts(g, specs, budget)
        return cls(n=g.n, keys=specs, counts=counts, degrees=g.degrees.copy())

    def get(self, key) -> np.ndarray:
        spec = WheelSpec.coerce(key)
        try:
            return self.counts[spec]
        except KeyError:
            raise DomainError(f"key {spec.name()} not in cache") from None


@dataclass(frozen=True)
class BootstrapResult:
    key: WheelSpec
    m: int
    B: int
    seed: int
    sigma2_hat: float
    replicates: np.ndarray
    full_sample_value: float

    def to_json(self) -> dict:
        reps = np.asarray(self.replicates, dtype=float)
        qs = np.quantile(reps, [0.05, 0.25, 0.5, 0.75, 0.95])
        return {
            "schema_version": SCHEMA_VERSION,
            "key": self.key.name(),
            "m": self.m,
            "B": self.B,
            "seed": self.seed,
            "sigma2_hat": float(self.sigma2_hat),
            "full_sample_value": float(self.full_sample_value),
            "replicates_summary": {
                "mean": float(reps.mean()),
                "sd": float(reps.std(ddof=0)),
                "quantiles": {
                    "p05": float(qs[0]),
                    "p25": float(qs[1]),
                    "p50": float(qs[2]),
                    "p75": float(qs[3]),
                    "p95": float(qs[4]),
                },
            },
        }


def _subsamples(n: int, m: int, seeds):
    """The m-vertex subsamples of successive blocks of replicates, one row each.

    A replicate keeps the first m entries of 0..n-1 after a partial
    Fisher-Yates shuffle drawn as integers(0, n - arange(m)) from its own
    generator.  The m swaps run once per block, vectorised across its rows
    of n int32s (int64s from 2^31 vertices) and about 3m int64s, which stay
    under graphstats.BLOCK_BYTES.  Each block yields a copy of its m
    columns, so the n-wide rows are freed before the next block is made.
    """
    rows = max(1, graphstats.BLOCK_BYTES // (8 * (n + 3 * m)))
    span = n - np.arange(m)
    vertex = np.int32 if n < 2**31 else np.int64
    for b0 in range(0, len(seeds), rows):
        block = seeds[b0 : b0 + rows]
        draws = [np.random.default_rng(s).integers(0, span, dtype=np.int64) for s in block]
        perm = np.empty((len(block), n), dtype=vertex)
        perm[:] = np.arange(n, dtype=vertex)
        flat = perm.reshape(-1)
        # step j swaps column j with the flat position picks[j] of each row
        picks = np.stack(draws, axis=1) + np.arange(m)[:, None] + n * np.arange(len(block))
        del draws
        for j, pick in enumerate(picks):
            held = perm[:, j].copy()
            perm[:, j] = flat.take(pick)
            flat.put(pick, held)
        kept = perm[:, :m].copy()
        del perm, flat, picks
        yield kept


def bootstrap_variance(
    g: Graph,
    cache: HubCountCache,
    key,
    m: int | None = None,
    B: int = 500,
    seed: int = 0,
) -> BootstrapResult:
    """Subsampling variance estimate for the hub-count moment estimator.

    m defaults to ceil(n^0.7).  Deterministic given (graph, key, m, B,
    seed); replicates use independent child seeds of `seed`.
    """
    spec = WheelSpec.coerce(key)
    n = g.n
    if m is None:
        m = math.ceil(n**0.7)
    if not (1 <= m <= n):
        raise DomainError(f"subsample size {m} outside 1..{n}")
    if B < 2:
        raise DomainError(f"need B >= 2 replicates, got {B}")

    counts = np.asarray(cache.get(spec))
    degrees = cache.degrees
    total, denom = wheel_total(counts, spec, n)
    if denom == 0:
        raise DomainError(f"pattern order {spec.p} exceeds graph order {n}")

    # integer sums keep replicates exactly order-independent (m = n must
    # reproduce the full-sample value bit for bit)
    full_dbar = int(degrees.sum()) / n
    if full_dbar == 0:
        raise NormalizationError("cannot bootstrap an empty graph")
    full_rho = full_dbar / (n - 1)
    full_value = total / denom * full_rho**-spec.q

    csum_dtype = graphstats.exact_sum_dtype(counts, m)
    sums = [
        pair
        for idx in _subsamples(n, m, np.random.SeedSequence(seed).spawn(B))
        for pair in zip(degrees[idx].sum(axis=1).tolist(),
                        counts[idx].sum(axis=1, dtype=csum_dtype).tolist())
    ]
    reps = np.empty(B)
    for b, (dsum, csum) in enumerate(sums):
        dbar = int(dsum) / m
        if dbar == 0:
            raise NormalizationError(
                f"replicate {b} drew an isolated vertex set; increase m"
            )
        # one correctly rounded division of exact integers, as in full_value
        p_hat = (n * int(csum)) / (m * denom)
        reps[b] = p_hat * (dbar / (n - 1)) ** -spec.q

    sigma2 = (m / n) * float(np.mean((reps - reps.mean()) ** 2))
    return BootstrapResult(
        key=spec,
        m=m,
        B=B,
        seed=seed,
        sigma2_hat=sigma2,
        replicates=reps,
        full_sample_value=full_value,
    )
