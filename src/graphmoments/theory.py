"""Population moments: operator iterates and wheel moments.

For a kernel w the integral operator is [T f](u) = integral w(u, v) f(v) dv.
On a block model T maps block-constant functions to block-constant
functions, with coordinate action v^(j) = M v^(j-1), M = S diag(pi),
v^(0) = 1.  The normalized wheel moment for spokes (ks, ls) is

    tau = E prod_j [T^{k_j} 1 (xi)]^{l_j},

an average of products of iterate coordinates under pi (blocks) or the
uniform cell measure (gridded graphons).  Acyclic-pattern moments depend
on the kernel only through these quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import BlockModel, Graphon
from .patterns import WheelSpec


@dataclass(frozen=True)
class OperatorIterates:
    """Iterate table: values[x, j-1] = [T^j 1] on block/cell x, in the
    model's own block order; weights the corresponding probability masses."""

    values: np.ndarray
    weights: np.ndarray
    kind: str

    @property
    def depth(self) -> int:
        return self.values.shape[1]


def _truncated_kernel(mat: np.ndarray, truncate_rho: float | None) -> np.ndarray:
    """Optionally apply the finite-density truncation w -> min(w, 1/rho)."""
    if truncate_rho is None:
        return mat
    if not (0 < truncate_rho <= 1):
        raise DomainError(f"truncation density {truncate_rho} outside (0, 1]")
    return np.minimum(mat, 1.0 / truncate_rho)


def iterate_operator_block(
    model: BlockModel, depth: int, truncate_rho: float | None = None
) -> OperatorIterates:
    """Block coordinates of T^j 1 for j = 1..depth, in the model's block
    order (moment sums are order-invariant, so no canonicalization)."""
    if depth < 1:
        raise DomainError("depth must be >= 1")
    values = block_iterates(model.pi, _truncated_kernel(model.S, truncate_rho), depth)
    return OperatorIterates(values=values, weights=model.pi, kind="block")


def block_iterates(pi: np.ndarray, s: np.ndarray, depth: int) -> np.ndarray:
    """Columns T^j 1, j = 1..depth, for block weights pi and kernel s."""
    m = s * pi[None, :]
    cols = []
    v = np.ones(pi.shape[0])
    for _ in range(depth):
        v = m @ v
        cols.append(v)
    return np.column_stack(cols)


def iterate_operator_graphon(
    w: Graphon, depth: int, truncate_rho: float | None = None
) -> OperatorIterates:
    """Cell coordinates of T^j 1 on the grid (uniform cell masses)."""
    if depth < 1:
        raise DomainError("depth must be >= 1")
    grid = _truncated_kernel(w.grid, truncate_rho)
    g = w.resolution
    cols = []
    v = np.ones(g)
    for _ in range(depth):
        v = grid @ v / g
        cols.append(v)
    weights = np.full(g, 1.0 / g)
    return OperatorIterates(values=np.column_stack(cols), weights=weights, kind="grid")


def wheel_tau(values: np.ndarray, weights: np.ndarray, spec: WheelSpec) -> float:
    """sum_a weights_a prod_j values[a, k_j - 1]^l_j: a wheel moment from iterates."""
    prod = np.ones(values.shape[0])
    for k, l in zip(spec.ks, spec.ls):
        prod = prod * values[:, k - 1] ** l
    return float(weights @ prod)


def tau_block(model: BlockModel, key, truncate_rho: float | None = None) -> float:
    """Population wheel moment on a block model."""
    spec = WheelSpec.coerce(key)
    it = iterate_operator_block(model, max(spec.ks), truncate_rho)
    return wheel_tau(it.values, it.weights, spec)


def tau_graphon(w: Graphon, key, truncate_rho: float | None = None) -> float:
    """Population wheel moment on a gridded graphon (exact for the grid;
    exact for an underlying block model when the grid aligns with block
    boundaries)."""
    spec = WheelSpec.coerce(key)
    it = iterate_operator_graphon(w, max(spec.ks), truncate_rho)
    return wheel_tau(it.values, it.weights, spec)


def tau_graphon_refined(
    w: Graphon, key, tol: float = 1e-10, max_doublings: int = 6
) -> tuple[float, float]:
    """Wheel moment with grid-doubling refinement.

    Doubling a piecewise-constant grid leaves the value unchanged, so the
    reported change estimates discretization error only when the grid is a
    sampled (not averaged) version of a smoother kernel.  Returns
    (value, last change).
    """
    spec = WheelSpec.coerce(key)
    val = tau_graphon(w, spec)
    change = 0.0
    grid = w.grid
    for _ in range(max_doublings):
        grid = np.repeat(np.repeat(grid, 2, axis=0), 2, axis=1)
        nxt = tau_graphon(Graphon(grid=grid), spec)
        change = abs(nxt - val)
        val = nxt
        if change <= tol:
            break
    return val, change


def tau_triangle_block(model: BlockModel) -> float:
    """Normalized triangle moment: trace of (S diag(pi))^3."""
    m = model.S * model.pi[None, :]
    return float(np.trace(m @ m @ m))


def tau_triangle_graphon(w: Graphon) -> float:
    g = w.resolution
    m = w.grid / g
    return float(np.trace(m @ m @ m))
