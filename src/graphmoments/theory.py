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

import itertools

import numpy as np

from .errors import DomainError
from .models import BlockModel, Graphon
from .patterns import WheelSpec


def iterate_operator(model, depth: int, truncate_rho: float | None = None) -> np.ndarray:
    """Row coordinates of T^j 1 for j = 1..depth on a BlockModel or Graphon:
    the (rows, depth) array whose [x, j-1] entry is [T^j 1] on kernel row x,
    with the model's ``weights`` as the rows' probability masses.

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
    return block_iterates(model.weights, kernel, depth)


def block_iterates(pi: np.ndarray, s: np.ndarray, depth: int, tangents=None):
    """Columns T^j 1, j = 1..depth, for block weights pi and kernel s.

    With tangents = (dpi, ds), P directions of shapes (P, K) and (P, K, K),
    also returns the columns' derivatives along each, shape (P, K, depth),
    by differentiating v^(j) = s (pi ∘ v^(j-1)) forward.
    """
    m = s * pi[None, :]
    values = np.empty((pi.shape[0], depth))
    v = np.ones(pi.shape[0])
    if tangents is None:
        for j in range(depth):
            v = values[:, j] = m @ v
        return values
    dpi, ds = tangents
    dvalues = np.empty((dpi.shape[0], pi.shape[0], depth))
    dv = np.zeros_like(dpi)
    for j in range(depth):
        dv = dvalues[:, :, j] = ds @ (pi * v) + (dpi * v + pi * dv) @ s.T
        v = values[:, j] = m @ v
    return values, dvalues


def wheel_exponents(specs) -> np.ndarray:
    """Row r holds spec r's multiplicity l_j in column k_j - 1, zeros elsewhere."""
    specs = list(specs)
    exps = np.zeros((len(specs), max(max(spec.ks) for spec in specs)), dtype=np.int64)
    for r, spec in enumerate(specs):
        exps[r, np.array(spec.ks) - 1] = spec.ls
    return exps


def wheel_moments(values: np.ndarray, weights: np.ndarray, exps: np.ndarray, tangents=None):
    """Wheel moments sum_a weights_a prod_k values[a, k]^exps[r, k], one per
    row r of ``wheel_exponents``, with no loop over keys.

    Powers are taken with integer exponents and multiplied in ascending
    spoke length, the arithmetic of one key at a time.  With tangents =
    (dweights, dvalues), P directions of shapes (P, K) and (P, K, depth),
    also returns the moments' derivatives along each, shape (rows, P).
    """
    depth = exps.shape[1]
    powers = np.stack([values ** e for e in range(int(exps.max()) + 1)])
    blocks, cols = np.arange(values.shape[0])[:, None], np.arange(depth)
    factors = powers[exps[:, None, :], blocks, cols]  # (rows, K, depth)
    prod = factors[..., 0]
    for j in range(1, depth):
        prod = prod * factors[..., j]
    taus = (prod[:, None, :] @ weights)[:, 0]  # a stack of 1-D dots: each key's own sum
    if tangents is None:
        return taus
    dweights, dvalues = tangents
    # d/dv of v^e is e v^(e-1), times the other columns' factors
    grad = exps[:, None, :] * powers[np.maximum(exps - 1, 0)[:, None, :], blocks, cols]
    for i, j in itertools.permutations(range(depth), 2):
        grad[..., j] *= factors[..., i]
    dtaus = prod @ dweights.T + np.einsum("rak,pak->rp", grad * weights[:, None], dvalues)
    return taus, dtaus


def tau(model, key, truncate_rho: float | None = None) -> float:
    """Population wheel moment on a BlockModel or Graphon (exact for a
    grid; exact for an underlying block model when the grid aligns with
    block boundaries)."""
    spec = WheelSpec.coerce(key)
    values = iterate_operator(model, max(spec.ks), truncate_rho)
    return float(wheel_moments(values, model.weights, wheel_exponents([spec]))[0])


def tau_triangle(model) -> float:
    """Normalized triangle moment: trace of (kernel diag(weights))^3."""
    m = model.kernel * model.weights[None, :]
    return float(np.trace(m @ m @ m))
