"""Population moments: operator iterates and wheel moments.

For a kernel w the integral operator is [T f](u) = integral w(u, v) f(v) dv.
On a block model T maps block-constant functions to block-constant
functions, with coordinate action v^(j) = M v^(j-1), M = S diag(pi),
v^(0) = 1.  The normalized wheel moment for spokes (ks, ls) is

    tau = E prod_j [T^{k_j} 1 (xi)]^{l_j},

an average of products of iterate coordinates under the kernel's row
masses: pi for a block model, 1/G per cell for a gridded graphon (its
step-function case).  Both expose that view (``weights``, ``kernel``), so
one set of functions serves both.  Acyclic-pattern moments depend on the
kernel only through these quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import BlockModel, Graphon
from .patterns import WheelSpec


@dataclass(frozen=True)
class OperatorIterates:
    """Iterate table: values[x, j-1] = [T^j 1] on kernel row x, in the
    model's own row order; weights the corresponding probability masses."""

    values: np.ndarray
    weights: np.ndarray


def iterate_operator(model, depth: int, truncate_rho: float | None = None) -> OperatorIterates:
    """Row coordinates of T^j 1 for j = 1..depth on a BlockModel or Graphon.

    With truncate_rho the kernel is first truncated to min(w, 1/rho), the
    finite-density version of the operator.  Moment sums are row-order
    invariant, so blocks keep the model's own order.
    """
    if not isinstance(model, (BlockModel, Graphon)):
        raise DomainError(f"unsupported model type {type(model).__name__}")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    kernel = model.kernel
    if truncate_rho is not None:
        if not (0 < truncate_rho <= 1):
            raise DomainError(f"truncation density {truncate_rho} outside (0, 1]")
        kernel = np.minimum(kernel, 1.0 / truncate_rho)
    weights = model.weights
    return OperatorIterates(values=block_iterates(weights, kernel, depth), weights=weights)


def block_iterates(pi: np.ndarray, s: np.ndarray, depth: int) -> np.ndarray:
    """Columns T^j 1, j = 1..depth, for block weights pi and kernel s."""
    m = s * pi[None, :]
    cols = []
    v = np.ones(pi.shape[0])
    for _ in range(depth):
        v = m @ v
        cols.append(v)
    return np.column_stack(cols)


def wheel_tau(values: np.ndarray, weights: np.ndarray, spec: WheelSpec) -> float:
    """sum_a weights_a prod_j values[a, k_j - 1]^l_j: a wheel moment from iterates."""
    prod = np.ones(values.shape[0])
    for k, l in zip(spec.ks, spec.ls):
        prod = prod * values[:, k - 1] ** l
    return float(weights @ prod)


def tau(model, key, truncate_rho: float | None = None) -> float:
    """Population wheel moment on a BlockModel or Graphon (exact for a
    grid; exact for an underlying block model when the grid aligns with
    block boundaries)."""
    spec = WheelSpec.coerce(key)
    it = iterate_operator(model, max(spec.ks), truncate_rho)
    return wheel_tau(it.values, it.weights, spec)


def tau_triangle(model) -> float:
    """Normalized triangle moment: trace of (kernel diag(weights))^3."""
    m = model.kernel * model.weights[None, :]
    return float(np.trace(m @ m @ m))
