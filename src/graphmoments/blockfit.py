"""Block-model parameter recovery from wheel moments.

The density-free wheel moments of a K-block model are mixed moments of the
block iterates: tau = sum_a pi_a prod_j (v^(k_j)_a)^(l_j).  Recovery
proceeds in stages:

  1. atoms_from_moments: solve the 1-d moment problem of the (1,l) wheels,
     l = 1..2K-1 (Hankel system -> monic polynomial -> roots -> Vandermonde
     weights; Lindsay, Ann. Statist. 1989), giving the weights pi_a and the
     first iterate v^(1)_a in ascending order,
  2. align_stages: each v^(k), k = 2..K, in stage 1's block order, from one
     linear solve W v^(k) = tau_k with W_la = pi_a (v^(1)_a)^l, l = 0..K-1,
     on the wheels (k,1) and ((1,l),(k,1)),
  3. recover_S: M = V2 V1^{-1} with V1 = [1, v^(1), .., v^(K-1)],
     V2 = [v^(1), .., v^(K)], then S = M diag(pi)^{-1} symmetrized,
  4. nls_refine: one unweighted Levenberg-Marquardt least-squares run
     (MINPACK) with the closed-form Jacobian of tau, projecting the full
     moment vector onto the model manifold, started at the direct estimate.

Outputs are in canonical block order (ascending v^(1), ``models.canonical_order``).

The thresholds belong to the method, not to a run, so they are module
constants: _HANKEL_COND_MAX and _VANDER_COND_MAX bound the condition numbers
of stage 1's linear systems and _WEIGHT_FLOOR the recovered weights.  Stage
2's matrix is that Vandermonde matrix times diag(pi), so they bound it too.
_IDENTIFIABILITY_COND_MAX bounds the iterate matrix of stage 3, and
_NLS_MAX_NFEV and _NLS_TOL stop stage 4's least-squares run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AtomSeparationError,
    DomainError,
    HankelIllPosedError,
    IdentifiabilityError,
    MomentProblemError,
    NormalizationError,
)
from .graph import Graph, rho_hat
from .hubs import DEFAULT_BUDGET
from .models import canonical_order
from .moments import SCHEMA_VERSION, wheel_moment_estimates
from .patterns import WheelSpec, wheel_class
from .theory import block_iterates, wheel_exponents, wheel_moments

_HANKEL_COND_MAX = 1e12
_VANDER_COND_MAX = 1e10
_WEIGHT_FLOOR = 1e-8
_IDENTIFIABILITY_COND_MAX = 1e10
_NLS_MAX_NFEV = 400
_NLS_TOL = 1e-14  # xtol, ftol and gtol: the run stops at _NLS_MAX_NFEV or at machine precision


@dataclass(frozen=True)
class FitConfig:
    """Configuration for the moment-based fit.

    keys() are the refined moments, one key per class of wheels
    (``patterns.wheel_class``) but (1,1), whose estimate is 1 on every graph.
    For K != 3 they are the classes of all (k, l) with k <= K and l <= 2K-1,
    for K = 2 (1,2), (1,3), (2,2), (2,3).  For K = 3 they are the 13 classes
    with a closed form: (1,2)..(1,5), (2,2), (2,3) and the mixed
    ((1,l),(k,1)), k in {2, 3}, l = 1..4, of which ((1,1),(3,1)) is (2,2).
    The fit counts stage_keys() too, the moments its stages read.

    budget is the enumeration budget of the exact counts, None for none.
    on_stage_error is "raise" (a stage error propagates) or "fallback" (the
    refinement starts from a neutral point instead).  The stage and solver
    thresholds are module constants (see the module docstring), not fields.
    """

    K: int
    budget: int | None = DEFAULT_BUDGET
    on_stage_error: str = "raise"

    def __post_init__(self):
        if self.K < 1:
            raise DomainError("K must be >= 1")
        if self.on_stage_error not in ("raise", "fallback"):
            raise DomainError(f"bad on_stage_error {self.on_stage_error!r}")

    def keys(self) -> list[WheelSpec]:
        if self.K == 3:
            simple = [(1, l) for l in range(2, 6)] + [(2, 2), (2, 3)]
            keys = ([WheelSpec.simple(k, l) for k, l in simple]
                    + [WheelSpec((1, k), (l, 1)) for k in (2, 3) for l in range(1, 5)])
        else:
            keys = [WheelSpec.simple(k, l) for k in range(1, self.K + 1) for l in range(1, 2 * self.K)]
        return [key for key in dict.fromkeys(map(wheel_class, keys)) if key.q > 1]

    def stage_keys(self) -> list[WheelSpec]:
        """The keys the stages read: (1,l) for l = 1..2K-1, then (k,1) and
        ((1,l),(k,1)) for 2 <= k <= K and l = 1..K-1."""
        return [WheelSpec.simple(1, l) for l in range(1, 2 * self.K)] + [
            WheelSpec((1, k), (l, 1)) if l else WheelSpec.simple(k, 1)
            for k in range(2, self.K + 1) for l in range(self.K)]


@dataclass
class FitResult:
    """Fitted block model plus the intermediate (direct) estimate.

    pi/S are the refined (least-squares projected) estimate in canonical
    order; pi_direct/S_direct the staged construction that initialized it;
    atoms the iterate matrix in stage 1's block order (column k-1 = v^(k));
    residual the sum of squared moment mismatches at the refined estimate.
    """

    K: int
    pi: np.ndarray
    S: np.ndarray
    rho: float
    residual: float
    converged: bool
    pi_direct: np.ndarray | None = None
    S_direct: np.ndarray | None = None
    atoms: np.ndarray | None = None
    residual_init: float | None = None
    tau_hat: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        diag = dict(self.diagnostics)
        diag["residual_init"] = self.residual_init
        diag["pi_direct"] = None if self.pi_direct is None else list(map(float, self.pi_direct))
        diag["S_direct"] = None if self.S_direct is None else [
            list(map(float, row)) for row in np.asarray(self.S_direct)
        ]
        diag["atoms"] = None if self.atoms is None else [
            list(map(float, row)) for row in np.asarray(self.atoms)
        ]
        diag["tau_hat"] = {k.name(): float(v) for k, v in self.tau_hat.items()}
        diag["projection_distance"] = math.sqrt(max(self.residual, 0.0))
        return {
            "schema_version": SCHEMA_VERSION,
            "K": self.K,
            "pi": list(map(float, self.pi)),
            "S": [list(map(float, row)) for row in np.asarray(self.S)],
            "rho_hat": float(self.rho),
            "residual": float(self.residual),
            "converged": bool(self.converged),
            "diagnostics": diag,
        }


def atoms_from_moments(moments, K: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Solve the K-atom moment problem given m_1..m_{2K-1} (m_0 = 1).

    Returns (atoms ascending, weights, diagnostics).  The Hankel system
    yields the monic polynomial whose roots are the atoms; the Vandermonde
    system yields the weights.  Near-coincident atoms surface as an
    ill-posed Hankel matrix or as complex/repeated roots.
    """
    m = np.asarray(moments, dtype=float)
    if m.shape != (2 * K - 1,):
        raise DomainError(f"need 2K-1 = {2 * K - 1} moments, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("moments must be finite")
    diag: dict = {"hankel_cond": 1.0, "vander_cond": 1.0, "weights_clipped": False}
    if K == 1:
        return np.array([m[0]]), np.array([1.0]), diag

    mm = np.concatenate(([1.0], m))  # mm[l] = m_l
    h = mm[np.add.outer(np.arange(K), np.arange(K))]  # Hankel: h[i, j] = m_{i+j}
    cond = float(np.linalg.cond(h))
    diag["hankel_cond"] = cond
    if not np.isfinite(cond) or cond > _HANKEL_COND_MAX:
        raise HankelIllPosedError(
            f"Hankel condition number {cond:.3g} exceeds {_HANKEL_COND_MAX:.3g} "
            "(near-coincident atoms or fewer than K distinct values)"
        )
    coeffs = np.linalg.solve(h, -mm[K : 2 * K])
    roots = np.roots(np.concatenate(([1.0], coeffs[::-1])))

    scale = max(1.0, float(np.max(np.abs(roots))))
    if np.max(np.abs(roots.imag)) > 1e-6 * scale:
        raise AtomSeparationError(
            f"complex atom estimates {roots} (moment vector not realizable by "
            f"{K} well-separated atoms)"
        )
    atoms = np.sort(roots.real)
    if np.min(np.diff(atoms)) < 1e-9 * scale:
        raise AtomSeparationError(f"repeated atoms {atoms}")

    vander = np.vander(atoms, N=K, increasing=True).T  # row l = atoms**l
    vcond = float(np.linalg.cond(vander))
    diag["vander_cond"] = vcond
    if not np.isfinite(vcond) or vcond > _VANDER_COND_MAX:
        raise AtomSeparationError(
            f"Vandermonde condition number {vcond:.3g} exceeds {_VANDER_COND_MAX:.3g}"
        )
    weights = np.linalg.solve(vander, mm[:K])
    if np.any(weights < _WEIGHT_FLOOR) or np.any(weights > 1.0):
        weights = np.clip(weights, _WEIGHT_FLOOR, 1.0)
        weights = weights / weights.sum()
        diag["weights_clipped"] = True
    return atoms, weights, diag


def align_stages(pi, atoms, tau_mixed) -> tuple[np.ndarray, dict]:
    """The iterate matrix in stage 1's block order: column k-1 holds v^(k).

    It solves and matches nothing.  pi and atoms are stage 1's weights and
    v^(1); each v^(k), k = 2..K, solves W v^(k) = tau_k with
    W_la = pi_a (v^(1)_a)^l for l = 0..K-1, where tau_k holds the moments of
    (k,1) and of ((1,l),(k,1)) for l = 1..K-1, read from the mapping
    tau_mixed (WheelSpec, (k,l) tuple or name keys).  W is stage 1's
    Vandermonde matrix, already checked, times diag(pi).  Returns (iterates,
    diagnostics).
    """
    pi = np.asarray(pi, dtype=float)
    atoms = np.asarray(atoms, dtype=float)
    K = pi.shape[0]
    if pi.shape != (K,) or atoms.shape != (K,):
        raise DomainError(f"need K weights and K atoms, got {pi.shape} and {atoms.shape}")
    taus = {WheelSpec.coerce(k): float(v) for k, v in tau_mixed.items()}
    rows = [[WheelSpec((1, k), (l, 1)) if l else WheelSpec.simple(k, 1) for k in range(2, K + 1)]
            for l in range(K)]
    missing = [key.name() for row in rows for key in row if key not in taus]
    if missing:
        raise DomainError(f"the iterate solve needs the moments of {missing}")
    w = np.vander(atoms, N=K, increasing=True).T * pi[None, :]
    later = np.linalg.solve(w, np.array([[taus[key] for key in row] for row in rows]))
    return np.column_stack([atoms, later]), {"solve_cond": float(np.linalg.cond(w))}


def recover_S(pi, iterates) -> tuple[np.ndarray, dict]:
    """S from aligned iterates: M = V2 V1^{-1}, S = M diag(pi)^{-1}, symmetrized.

    V1 = [1, v^(1), .., v^(K-1)], V2 = [v^(1), .., v^(K)]; a near-singular
    V1 (e.g. flat v^(1), i.e. the all-ones vector is an eigenvector of the
    kernel) is an identifiability failure of the moment route.
    """
    pi = np.asarray(pi, dtype=float)
    iterates = np.atleast_2d(np.asarray(iterates, dtype=float))
    K = pi.shape[0]
    if K == 1:
        return np.array([[1.0]]), {"v1_cond": 1.0, "s_asymmetry": 0.0}
    if iterates.shape[0] != K or iterates.shape[1] < K:
        raise DomainError(f"need a {K}x{K} iterate matrix, got {iterates.shape}")
    v1 = np.column_stack([np.ones(K), iterates[:, : K - 1]])
    v2 = iterates[:, :K]
    cond = float(np.linalg.cond(v1))
    if not np.isfinite(cond) or cond > _IDENTIFIABILITY_COND_MAX:
        raise IdentifiabilityError(
            f"iterate matrix condition number {cond:.3g} exceeds {_IDENTIFIABILITY_COND_MAX:.3g}; "
            "the constant vector is (numerically) an eigenvector of the kernel, "
            "so the moment sequence cannot separate the blocks"
        )
    m = np.linalg.solve(v1.T, v2.T).T
    s_raw = m / pi[None, :]
    asym = float(np.max(np.abs(s_raw - s_raw.T)))
    s = 0.5 * (s_raw + s_raw.T)
    return s, {"v1_cond": cond, "s_asymmetry": asym}


def tau_forward(pi, S, keys) -> np.ndarray:
    """Wheel moments of a (pi, S) pair for the given WheelSpec keys: the
    tau-only path of the map ``nls_refine`` differentiates."""
    pi = np.asarray(pi, dtype=float)
    exps = wheel_exponents(keys)
    return wheel_moments(block_iterates(pi, np.asarray(S, dtype=float), exps.shape[1]), pi, exps)


class _Parameterization:
    """Unconstrained coordinates: pi = softmax(t, 0); S = U^2 / (pi' U^2 pi)
    with U symmetric from the packed upper triangle.  The in-map
    normalization absorbs the scale gauge, so no entry is pinned."""

    def __init__(self, K: int):
        self.K = K
        self.iu = np.triu_indices(K)
        self.nparams = (K - 1) + len(self.iu[0])

    def pack(self, pi, S) -> np.ndarray:
        pi = np.maximum(np.asarray(pi, dtype=float), 1e-12)
        pi = pi / pi.sum()
        t = np.log(pi[:-1]) - np.log(pi[-1])
        scale = float(pi @ np.asarray(S, dtype=float) @ pi)
        if scale <= 0:
            raise DomainError("initial S has nonpositive normalization")
        s0 = np.maximum(np.asarray(S, dtype=float) / scale, 0.0)
        u = np.sqrt(s0[self.iu])
        return np.concatenate([t, u])

    def unpack(self, x: np.ndarray):
        """(pi, S, dpi, dS) at x: the model and its derivatives along each
        coordinate, shapes (P, K) and (P, K, K).  S is NaN when pi' U^2 pi
        vanishes."""
        K, (rows, cols) = self.K, self.iu
        t, u = x[: K - 1], x[K - 1 :]
        logits = np.append(t, 0.0)
        e = np.exp(logits - logits.max())
        pi = e / e.sum()
        dpi = np.zeros((self.nparams, K))
        dpi[: K - 1] = pi * (np.eye(K)[: K - 1] - pi[: K - 1, None])
        w = np.zeros((K, K))
        w[rows, cols] = w[cols, rows] = u * u
        dw = np.zeros((self.nparams, K, K))
        coords = np.arange(K - 1, self.nparams)
        dw[coords, rows, cols] = dw[coords, cols, rows] = 2.0 * u
        scale = float(pi @ w @ pi)
        if scale <= 0:
            return pi, np.full((K, K), np.nan), dpi, dw
        dscale = 2.0 * dpi @ (w @ pi) + (dw @ pi) @ pi
        s = w / scale
        return pi, s, dpi, dw / scale - s * (dscale / scale)[:, None, None]


def nls_refine(tau_hat, init, cfg: FitConfig) -> FitResult:
    """Project the estimated moments onto the block-model manifold.

    Minimizes sum_keys (tau_hat_kl - tau_kl(pi, S))^2 over the
    constraint set via an unconstrained reparameterization, in one run of
    MINPACK's Levenberg-Marquardt solver started at `init` and fed the
    closed-form Jacobian of tau in those coordinates.  Needs at least as
    many keys as coordinates, K - 1 + K(K+1)/2.  Never returns a residual
    above the initialization's: when the run does not lower it, the result
    is `init` itself.  converged is whether the run stopped on a tolerance
    rather than on the evaluation cap.  The result holds only what the
    refinement computes: rho is 0.0, atoms None and the diagnostics the
    solver's own; ``fit_block_model`` adds the graph's.

    A flat S (all entries equal) is a stationary point: every first-order
    change of tau vanishes there, so the run stops at its first evaluation
    and a flat start comes back unchanged.
    """
    taus = {WheelSpec.coerce(k): float(v) for k, v in tau_hat.items()}
    keys = sorted(taus, key=lambda s: (s.ks, s.ls))
    K = cfg.K
    par = _Parameterization(K)
    if len(keys) < par.nparams:
        raise DomainError(
            f"{len(keys)} moment keys cannot determine the {par.nparams} "
            f"coordinates of a K={K} fit"
        )
    target = np.array([taus[k] for k in keys])

    pi0, s0 = init
    pi0 = np.asarray(pi0, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    x0 = par.pack(pi0, s0)
    exps = wheel_exponents(keys)
    gauge = float(x0[K - 1 :] @ x0[K - 1 :])
    last: dict = {}

    def forward(x):
        """Residuals and their Jacobian at x, memoised on the last x so the
        solver's fun and jac calls share one evaluation.  A last row pins
        the scale gauge (u -> c u leaves S unchanged) at |u|^2 = |u0|^2.  It
        is orthogonal to every moment row, so it moves no fit, and it keeps
        the Jacobian full rank: with the gauge free, MINPACK (scipy 1.17)
        took different steps on identical inputs from one run to the next."""
        key = np.asarray(x, dtype=float).tobytes()
        if last.get("key") != key:
            pi, s, dpi, ds = par.unpack(x)
            u = x[K - 1 :]
            r, jac = np.full(len(keys) + 1, 1e6), np.zeros((len(keys) + 1, par.nparams))
            if np.all(np.isfinite(s)):
                values, dvalues = block_iterates(pi, s, exps.shape[1], (dpi, ds))
                tau, dtau = wheel_moments(values, pi, exps, (dpi, dvalues))
                r[:-1], jac[:-1] = tau - target, dtau
            r[-1], jac[-1, K - 1 :] = u @ u - gauge, 2.0 * u
            last.update(key=key, r=r, J=jac)
        return last["r"], last["J"]

    def sq(x):
        r = forward(x)[0][:-1]
        return float(r @ r)

    residual_init = sq(x0)
    # imported here so that commands which never fit skip scipy.optimize at start-up
    from scipy.optimize import least_squares

    sol = least_squares(
        lambda x: forward(x)[0],
        x0,
        jac=lambda x: forward(x)[1],
        method="lm",
        xtol=_NLS_TOL,
        ftol=_NLS_TOL,
        gtol=_NLS_TOL,
        max_nfev=_NLS_MAX_NFEV,
    )
    x_hat, residual = sol.x, sq(sol.x)
    if not residual < residual_init:  # the run did not lower the residual: return x0
        x_hat, residual = x0, residual_init

    pi_hat, s_hat, _, _ = par.unpack(x_hat)
    order = canonical_order(pi_hat, s_hat)
    pi_hat = pi_hat[order]
    s_hat = s_hat[np.ix_(order, order)]

    return FitResult(
        K=K,
        pi=pi_hat,
        S=s_hat,
        rho=0.0,
        residual=residual,
        converged=bool(sol.status > 0),
        pi_direct=pi0,
        S_direct=s0,
        residual_init=residual_init,
        tau_hat=taus,
        diagnostics={
            "nls_status": int(sol.status),
            "nls_nfev": int(sol.nfev),
            "nls_njev": int(sol.njev),
        },
    )


def _fallback_init(K: int) -> tuple[np.ndarray, np.ndarray]:
    pi = np.full(K, 1.0 / K)
    s = np.ones((K, K)) + 0.2 * np.diag(np.linspace(-1.0, 1.0, K))
    s = s / float(pi @ s @ pi)
    return pi, s


def fit_block_model(g: Graph, cfg: FitConfig) -> FitResult:
    """Full pipeline: wheel moments -> stage recovery -> NLS projection.

    Wheel moments are the noninduced Q_check estimates of cfg.keys() and,
    for the direct estimate, cfg.stage_keys(), counted exactly in one call;
    the refinement fits cfg.keys() only, all with one weight.  A key whose
    count exceeds cfg.budget raises the search's BudgetExceededError, which
    names it.
    K = 1 has nothing to estimate (tau_(1,1) = 1 on every graph) and
    returns pi = [1], S = [[1]] at once.  Stage errors (ill-posed Hankel or
    atoms, unidentifiable iterates) propagate unless cfg.on_stage_error ==
    "fallback", which starts the least-squares refinement from a neutral
    point instead.
    """
    rho = rho_hat(g)
    if rho <= 0:
        raise NormalizationError("cannot fit an empty graph (rho_hat = 0)")
    if cfg.K == 1:
        return FitResult(
            K=1, pi=np.ones(1), S=np.ones((1, 1)), rho=rho, residual=0.0, residual_init=0.0,
            converged=True, pi_direct=np.ones(1), S_direct=np.ones((1, 1)), atoms=np.ones((1, 1)),
            tau_hat={WheelSpec.simple(1, 1): 1.0},
        )

    keys = cfg.keys()
    found = wheel_moment_estimates(g, dict.fromkeys(keys + cfg.stage_keys()), budget=cfg.budget)
    taus = {k: found[k] for k in keys}
    diagnostics: dict = {"stages": []}

    atoms_matrix = None
    try:
        mom = [found[WheelSpec.simple(1, l)] for l in range(1, 2 * cfg.K)]
        atoms, pi0, stage_diag = atoms_from_moments(mom, cfg.K)
        diagnostics["stages"].append(stage_diag)
        atoms_matrix, solve_diag = align_stages(pi0, atoms, found)
        s0, rec_diag = recover_S(pi0, atoms_matrix)
        scale = float(pi0 @ s0 @ pi0)
        if scale <= 0:
            raise IdentifiabilityError(f"direct estimate has normalization {scale:.3g}")
        s0 = np.maximum(s0 / scale, 0.0)
        diagnostics.update({"solve": solve_diag, "recover": rec_diag, "direct_scale": scale})
    except (MomentProblemError, IdentifiabilityError) as exc:
        if cfg.on_stage_error != "fallback":
            raise
        diagnostics["stage_error"] = f"{type(exc).__name__}: {exc}"
        pi0, s0 = _fallback_init(cfg.K)
        atoms_matrix = None

    res = nls_refine(taus, (pi0, s0), cfg)
    return replace(res, rho=rho, atoms=atoms_matrix,
                   diagnostics={**diagnostics, **res.diagnostics})
