"""Block models, gridded graphons, and latent-position sampling.

The generative convention: latent positions xi_i are iid Uniform(0,1) and
an edge (i, j) appears independently with probability rho * w(xi_i, xi_j),
truncated at 1, where w integrates to 1.  A block model is the piecewise-
constant case: normalized affinity S with sum_ab pi_a pi_b S_ab = 1 and
edge probability rho * S between blocks.

Canonical parameterization orders blocks by ascending marginal intensity
v_a = sum_b S_ab pi_b (``canonical_order``), so the graphon marginal
u -> integral w(u, .) is nondecreasing; latent intervals are the
cumulative pi in that order.

Both model types expose one view, which ``theory`` and ``degrees`` read:
``weights`` (row masses pi, or 1/G per grid cell), ``kernel`` (S, or the
grid) and ``locate(xi)``, the kernel row of each latent position.

All randomness flows through numpy's PCG64 generator seeded by an explicit
integer, so identical seeds reproduce graphs exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, InvalidModelError
from .graph import Graph

_NORM_TOL = 1e-8
_GRID_TOL = 1e-9


def check_rho(rho: float) -> None:
    """InvalidModelError unless the density rho lies in (0, 1]."""
    if not (0 < rho <= 1):
        raise InvalidModelError(f"rho={rho} outside (0, 1]")


def canonical_order(pi: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Block permutation sorting marginal intensity v = S pi ascending.

    Ties break by pi then by a sorted row fingerprint, keeping the order
    invariant under block relabeling.
    """
    v = S @ pi
    fingerprints = [tuple(np.sort(row)) for row in S]
    return np.array(
        sorted(range(pi.size), key=lambda a: (v[a], pi[a], fingerprints[a])), dtype=np.int64
    )


@dataclass(frozen=True, eq=False)
class BlockModel:
    """K-block exchangeable graph model (pi, S, rho).

    Invariants: pi a strictly positive probability vector; S symmetric,
    nonnegative, with sum_ab pi_a pi_b S_ab = 1; rho in (0, 1] and
    rho * max(S) <= 1 so every edge probability is valid.
    """

    pi: np.ndarray
    S: np.ndarray
    rho: float

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float).ravel()
        S = np.asarray(self.S, dtype=float)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "S", S)
        if pi.size == 0 or np.any(pi <= 0):
            raise InvalidModelError("pi must be strictly positive")
        if abs(pi.sum() - 1.0) > _NORM_TOL:
            raise InvalidModelError(f"pi sums to {pi.sum():.12g}, expected 1")
        if S.shape != (pi.size, pi.size):
            raise InvalidModelError(f"S shape {S.shape} does not match K={pi.size}")
        if np.any(S < 0):
            raise InvalidModelError("S must be nonnegative")
        if not np.allclose(S, S.T, rtol=0, atol=_NORM_TOL):
            raise InvalidModelError("S must be symmetric")
        norm = float(pi @ S @ pi)
        if abs(norm - 1.0) > _NORM_TOL:
            raise InvalidModelError(
                f"S is not normalized: sum pi_a pi_b S_ab = {norm:.12g}"
            )
        check_rho(self.rho)
        if self.rho * S.max() > 1 + 1e-12:
            raise InvalidModelError(
                f"rho * max(S) = {self.rho * S.max():.6g} > 1: invalid edge probability"
            )

    @property
    def K(self) -> int:
        return self.pi.size

    @property
    def weights(self) -> np.ndarray:
        return self.pi

    @property
    def kernel(self) -> np.ndarray:
        return self.S

    def locate(self, xi: np.ndarray) -> np.ndarray:
        """Kernel row (block in the model's own order) of each latent position."""
        return self.canonical_order()[self.block_of(xi)]

    def canonical_order(self) -> np.ndarray:
        """Block permutation into canonical order; see canonical_order."""
        return canonical_order(self.pi, self.S)

    def canonical_intervals(self) -> np.ndarray:
        """Upper endpoints of the latent intervals, in canonical block order."""
        bounds = np.cumsum(self.pi[self.canonical_order()])
        bounds[-1] = 1.0
        return bounds

    def block_of(self, u: np.ndarray) -> np.ndarray:
        """Canonical block index for latent positions u in [0, 1]."""
        bounds = self.canonical_intervals()
        return np.minimum(np.searchsorted(bounds, u, side="right"), self.K - 1)

    def to_json(self) -> dict:
        return {
            "K": self.K,
            "pi": self.pi.tolist(),
            "S": self.S.tolist(),
            "rho": self.rho,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BlockModel":
        try:
            pi, S, rho = obj["pi"], obj["S"], obj["rho"]
            if "K" in obj and int(obj["K"]) != len(pi):
                raise InvalidModelError("K does not match len(pi)")
            pi, S, rho = np.asarray(pi, float), np.asarray(S, float), float(rho)
        except KeyError as exc:
            raise InvalidModelError(f"missing block-model field {exc}") from exc
        except (TypeError, ValueError) as exc:  # a field that is not a number or array
            raise InvalidModelError(f"bad block-model field: {exc}") from exc
        return cls(pi=pi, S=S, rho=rho)

    def with_rho(self, rho: float) -> "BlockModel":
        return BlockModel(pi=self.pi, S=self.S, rho=rho)


@dataclass(frozen=True, eq=False)
class Graphon:
    """Piecewise-constant graphon on a uniform resolution x resolution grid.

    grid[r, s] is the value of w on cell [r/G,(r+1)/G) x [s/G,(s+1)/G).
    Invariants: square symmetric nonnegative grid with mean 1 (within 1e-9).
    Canonical monotonicity of the marginal is not enforced.
    """

    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1] or grid.shape[0] == 0:
            raise InvalidModelError(f"grid must be square, got {grid.shape}")
        if np.any(grid < 0):
            raise InvalidModelError("graphon values must be nonnegative")
        if not np.allclose(grid, grid.T, rtol=0, atol=_GRID_TOL):
            raise InvalidModelError("grid must be symmetric")
        mean = float(grid.mean())
        if abs(mean - 1.0) > _GRID_TOL:
            raise InvalidModelError(f"grid mean {mean:.12g} != 1")

    @property
    def resolution(self) -> int:
        return self.grid.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Uniform cell masses 1/G."""
        return np.full(self.resolution, 1.0 / self.resolution)

    @property
    def kernel(self) -> np.ndarray:
        return self.grid

    def locate(self, xi: np.ndarray) -> np.ndarray:
        """Grid cell (kernel row) of each latent position."""
        xi = np.asarray(xi, dtype=float)
        return np.minimum((xi * self.resolution).astype(np.int64), self.resolution - 1)

    def to_json(self) -> dict:
        return {"resolution": self.resolution, "grid": self.grid.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Graphon":
        try:
            grid = np.asarray(obj["grid"], float)
            if "resolution" in obj and int(obj["resolution"]) != len(grid):
                raise InvalidModelError("resolution does not match grid size")
        except KeyError as exc:
            raise InvalidModelError(f"missing graphon field {exc}") from exc
        except (TypeError, ValueError) as exc:  # a field that is not a number or array
            raise InvalidModelError(f"bad graphon field: {exc}") from exc
        return cls(grid=grid)


@dataclass(frozen=True)
class SampleOutput:
    """A sampled graph plus the latent positions (if kept) and the seed."""

    graph: Graph
    xi: np.ndarray | None
    seed: int


def load_model(path) -> BlockModel | Graphon:
    """Load either model type from a JSON file, keyed on its fields."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # invalid JSON or text encoding
            raise InvalidModelError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidModelError(f"model file {path} does not hold a JSON object")
    return model_from_json(obj)


def model_from_json(obj: dict) -> BlockModel | Graphon:
    """Either model type from its JSON object, keyed on its fields."""
    if not isinstance(obj, dict):
        raise InvalidModelError(f"a model must be a JSON object, not {type(obj).__name__}")
    return Graphon.from_json(obj) if "grid" in obj else BlockModel.from_json(obj)


def save_model(model: BlockModel | Graphon, path) -> None:
    Path(path).write_text(json.dumps(model.to_json(), indent=2) + "\n", encoding="utf-8")


def blockmodel_to_graphon(model: BlockModel, resolution: int) -> Graphon:
    """Average the block affinity over a uniform grid in canonical order.

    Cell values are exact cell averages of the canonical w, so the grid
    mean is exactly 1 for any pi; when block boundaries align with grid
    lines the grid is exactly piecewise-constant-equal to w.
    """
    if resolution < model.K:
        raise DomainError(f"resolution {resolution} < K={model.K}")
    order = model.canonical_order()
    s_can = model.S[np.ix_(order, order)]
    bounds = np.concatenate([[0.0], model.canonical_intervals()])
    # overlap[r, a] = fraction of cell r covered by canonical block a
    edges = np.arange(resolution + 1) / resolution
    overlap = np.zeros((resolution, model.K))
    for a in range(model.K):
        lo, hi = bounds[a], bounds[a + 1]
        cover = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
        overlap[:, a] = np.maximum(cover, 0.0) * resolution
    grid = overlap @ s_can @ overlap.T
    grid = (grid + grid.T) / 2
    return Graphon(grid=grid)


def _floyd_sample(rng: np.random.Generator, total: int, k: int) -> np.ndarray:
    """Uniform k-subset of range(total), ascending (which keeps the pair
    decode's binary search cache-friendly), in O(k) memory.

    Floyd's draw: step i = 0..k-1 draws t_i uniform on [0, j_i] with
    j_i = total - k + i, and adds t_i unless t_i is already in the set,
    in which case it adds j_i (never in the set: every earlier entry is at
    most j_{i-1}).  Step i collides exactly when
      - t_i repeats an earlier draw t_m (that value entered the set at or
        before step m), or
      - t_i is a first draw equal to j_m for the earlier step
        m = t_i - (total - k), and step m itself collided.
    The second case chains back through earlier steps, so its chains are
    resolved by pointer jumping.  The draws, and hence the generator state
    afterwards, are those of the sequential loop, and so is the subset.
    """
    if k < 0 or k > total:
        raise DomainError("sample size outside range")
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    base = total - k
    js = np.arange(base, total, dtype=np.int64)
    ts = rng.integers(0, js + 1)
    order = np.argsort(ts)
    runs = np.flatnonzero(np.diff(ts[order], prepend=-1))  # one run per drawn value
    collided = np.ones(k, dtype=bool)
    collided[np.minimum.reduceat(order, runs)] = False  # the first draw of each value
    chained = np.flatnonzero(~collided & (ts >= base) & (ts < js))
    ptr = np.arange(k)
    ptr[chained] = ts[chained] - base
    active = chained
    while active.size:  # ptr = ptr[ptr] on the steps whose pointer still moves
        step = ptr[active]
        hop = ptr[step]
        ptr[active] = hop
        active = active[hop != step]
    collided[chained] = collided[ptr[chained]]
    out = np.where(collided, js, ts)
    out.sort()  # in place: a sorted copy raises the sampler's peak memory
    return out


def _decode_triangular(idx: np.ndarray, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the lexicographic index of pairs (i < j) over g items: row i
    starts at i(2g - 1 - i)/2."""
    rows = np.arange(g - 1, dtype=np.int64)
    starts = rows * (2 * g - 1 - rows) // 2
    i = np.searchsorted(starts, idx, side="right") - 1
    return i, idx - starts[i] + i + 1


def _sample_cells(
    rng: np.random.Generator,
    groups: list[np.ndarray],
    prob: np.ndarray,
    n: int,
) -> Graph:
    """Draw Bernoulli edges for every pair of groups via binomial counts.

    For each (group a, group b) cell the number of edges is Binomial(#pairs,
    p_ab) and the positions are a uniform subset, which reproduces the iid
    per-pair Bernoulli law exactly while touching only realized edges.
    """
    chunks = []
    for a, ga in enumerate(groups):
        for b in range(a, len(groups)):
            gb = groups[b]
            p = float(prob[a, b])
            total = ga.size * (ga.size - 1) // 2 if a == b else ga.size * gb.size
            if p <= 0.0 or total == 0:
                continue
            cnt = total if p >= 1.0 else int(rng.binomial(total, p))
            idx = _floyd_sample(rng, total, cnt)
            i, j = _decode_triangular(idx, ga.size) if a == b else np.divmod(idx, gb.size)
            chunks.append(np.column_stack([ga[i], gb[j]]))
    edges = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 2), dtype=np.int64)
    return Graph.from_edges(edges, num_vertices=n)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def sample_block_model(
    model: BlockModel, n: int, seed: int, keep_latents: bool = False
) -> SampleOutput:
    """Sample an n-vertex graph: xi ~ U(0,1) iid, blocks by canonical
    intervals, edges Bernoulli(rho * S) per block pair."""
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = _generator(seed)
    xi = rng.random(n)
    order = model.canonical_order()
    blocks = model.block_of(xi)
    groups = [np.flatnonzero(blocks == c).astype(np.int64) for c in range(model.K)]
    s_can = model.S[np.ix_(order, order)]
    g = _sample_cells(rng, groups, model.rho * s_can, n)
    return SampleOutput(graph=g, xi=xi if keep_latents else None, seed=seed)


def sample_graphon(
    w: Graphon, rho: float, n: int, seed: int, keep_latents: bool = False
) -> SampleOutput:
    """Sample from a gridded graphon at density rho; cell probabilities are
    min(rho * w, 1), so cells exceeding 1/rho saturate to certain edges."""
    if n < 1:
        raise DomainError("n must be >= 1")
    check_rho(rho)
    rng = _generator(seed)
    xi = rng.random(n)
    cells = w.locate(xi)
    occupied = np.unique(cells)
    groups = [np.flatnonzero(cells == c).astype(np.int64) for c in occupied]
    prob = np.minimum(rho * w.grid[np.ix_(occupied, occupied)], 1.0)
    g = _sample_cells(rng, groups, prob, n)
    return SampleOutput(graph=g, xi=xi if keep_latents else None, seed=seed)


def erdos_renyi_model(rho: float) -> BlockModel:
    """The one-block model: every pair independently at density rho."""
    return BlockModel(pi=np.array([1.0]), S=np.array([[1.0]]), rho=rho)
