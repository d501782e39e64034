"""Higher-order degrees, latent profiles, and coupling diagnostics.

The order-m degree D_i^(m) is the number of loopless m-edge paths starting
at vertex i.  Normalized by powers of the mean degree these approximate the
operator iterates evaluated at the vertex's latent position (of either
model type, through ``theory.iterate_operator`` and ``model.locate``),
which is what the coupling diagnostics quantify.

Orders 1-3 are closed forms over the graph's cached statistics layer
(``Graph.stats``): degrees, D^(2) and triangles per vertex, with every
mat-vec taken as row sums over the CSR entries; no A^2 is formed and
scipy is not loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import Budget, embeddings, triangles_per_vertex
from .errors import CountOverflowError, DomainError, NormalizationError
from .graph import Graph, average_degree
from .graphstats import _INT64_LIMIT, exact_sum_dtype, row_sums
from .patterns import WheelSpec, adjacency
from .theory import iterate_operator


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex path counts D^(1..m) plus the graph's mean degree.

    counts has shape (n, m); column j-1 holds D^(j).  Exact integers.
    """

    counts: np.ndarray
    mean_degree: float

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @property
    def m(self) -> int:
        return self.counts.shape[1]

    def normalized(self) -> np.ndarray:
        """counts[:, j-1] / mean_degree**j, the scale-free profile."""
        if self.mean_degree == 0:
            raise NormalizationError("normalized profile undefined on an empty graph")
        powers = self.mean_degree ** np.arange(1, self.m + 1)
        return self.counts.astype(float) / powers


def _paths_order3(g: Graph) -> np.ndarray:
    """D^(3) closed form: summing d_l choices over i~j~k and excluding the
    revisits l in {j, i} gives A^2 (d-1) - d(d-1) - 2 * triangles, with
    A^2 (d-1) taken as A (A (d-1)), two row sums over the CSR entries that
    are at most D^3 for max degree D (past 2^62, CountOverflowError), and
    triangles from the statistics layer."""
    st = g.stats
    dmax = int(st.d.max(initial=0))
    if dmax**3 >= _INT64_LIMIT:
        raise CountOverflowError(f"D^(3) sums could pass 2^62 (max degree {dmax})")
    f = st.d - 1
    t1 = row_sums(st.indptr, row_sums(st.indptr, f[st.indices])[st.indices])
    return t1 - st.d * f - 2 * triangles_per_vertex(g)


def m_degrees(g: Graph, m: int, budget: int | None = 50_000_000) -> DegreeProfile:
    """Exact D^(1..m) for every vertex.

    Orders up to 3 use closed forms; each higher order j is the rooted
    search of the j-edge path from an endpoint (``counting.embeddings``),
    and one budget bounds the search nodes of all of them (work grows like
    n * mean_degree^(m-1)).  A graph with no vertices has (0, m) counts and
    mean degree 0.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    cols = [g.stats.d]
    if m >= 2:
        cols.append(g.stats.d2)
    if m >= 3:
        cols.append(_paths_order3(g))
    steps = Budget(budget, f"D^({m})")
    for j in range(4, m + 1):
        path = adjacency(j + 1, [(v, v + 1) for v in range(j)])
        cols.append(np.array(embeddings(g, path, steps, root=True), dtype=np.int64))
    counts = np.column_stack(cols)
    return DegreeProfile(counts=counts, mean_degree=average_degree(g) if g.n else 0.0)


def theta_profile(model, xi: np.ndarray, m: int) -> np.ndarray:
    """Operator iterates (T1, T^2 1, ..., T^m 1) at each latent position:
    the (n, m) population counterpart of ``DegreeProfile.counts``.

    Accepts a BlockModel or Graphon: each position reads the iterate row of
    its kernel row (``model.locate``).  For the canonical parameterization
    of a block model the first coordinate is monotone nondecreasing in xi.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0) or np.any(xi > 1):
        raise DomainError("latent positions must lie in [0, 1]")
    return iterate_operator(model, m)[model.locate(xi)]


def joint_coupling_error(profile: DegreeProfile, theta: np.ndarray) -> float:
    """Mean squared distance between the normalized degree profile and the
    latent iterate profile ``theta_profile``: (1/n) sum_i ||D~_i - theta(xi_i)||^2."""
    if profile.counts.shape != theta.shape:
        raise DomainError("profile and theta shapes differ")
    diff = profile.normalized() - theta
    return float(np.mean(np.sum(diff * diff, axis=1)))


def mallows2_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Order-2 Mallows (quantile-coupling L2) distance between two samples.

    Equal sizes couple sorted values directly; unequal sizes couple through
    a common quantile grid of the coarser resolution's refinement.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise DomainError("mallows2_1d needs non-empty samples")
    if a.size == b.size:
        return float(np.sqrt(np.mean((a - b) ** 2)))
    # quantile coupling: integrate (F_a^{-1} - F_b^{-1})^2 over the merged
    # breakpoints i/na, j/nb — exact and O(na + nb)
    na, nb = a.size, b.size
    cuts = np.union1d(np.arange(1, na) / na, np.arange(1, nb) / nb)
    edges = np.concatenate([[0.0], cuts, [1.0]])
    lens = np.diff(edges)
    mids = (edges[:-1] + edges[1:]) / 2
    ia = np.minimum((mids * na).astype(np.int64), na - 1)
    ib = np.minimum((mids * nb).astype(np.int64), nb - 1)
    return float(np.sqrt(np.sum(lens * (a[ia] - b[ib]) ** 2)))


def falling_factorial_column(x: np.ndarray, l: int) -> np.ndarray:
    """(x)_l elementwise for x >= 0, exact: int64 while x.max()**l < 2^62,
    else Python ints (object dtype)."""
    x = np.asarray(x, dtype=np.int64)
    hi = int(x.max()) if x.size else 0
    if hi**l < 2**62:
        out = np.ones(x.shape, dtype=np.int64)
        for j in range(l):
            out *= x - j
        return out
    vals, inv = np.unique(x, return_inverse=True)
    return np.array([math.perm(int(v), l) for v in vals], dtype=object)[inv]


def degree_moment_approx(profile: DegreeProfile, key: WheelSpec | tuple) -> float:
    """Moment estimate from degree counts alone:
    (1/n) sum_i prod_j (D_i^(k_j))_{l_j} / mean_degree^(sum k_j l_j).

    Ignores overlap between the counted paths, so it equals the exact
    wheel-based estimate only when every k_j = 1.  For k_j >= 2 spokes can
    share vertices on any graph, trees included (two 2-paths through one
    neighbour j overlap; for the (2,2) key these pairs add sum_j (d_j)_3 to
    the numerator), so the estimate is biased upward with relative bias of
    order 1/mean_degree.
    """
    spec = WheelSpec.coerce(key)
    if max(spec.ks) > profile.m:
        raise DomainError(
            f"profile holds orders up to {profile.m}, key needs {max(spec.ks)}"
        )
    if profile.mean_degree == 0:
        raise NormalizationError("degree approximation undefined on an empty graph")
    cols = [
        falling_factorial_column(profile.counts[:, k - 1], l)
        for k, l in zip(spec.ks, spec.ls)
    ]
    bound = math.prod(max(1, int(c.max())) for c in cols) if profile.n else 0
    num = np.ones(profile.n, dtype=np.int64 if bound < 2**62 else object)
    for c in cols:
        num = num * c
    total = int(num.sum(dtype=exact_sum_dtype(num, num.size)))
    return total / (profile.n * profile.mean_degree ** spec.q)
