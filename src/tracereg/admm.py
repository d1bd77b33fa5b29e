"""Gap-certified accelerated proximal gradient solver.

Solves, over Theta in R^{d1 x d2},

    min (1/2n) sum_i (y_i - <Xt_i, Theta>)^2 + lambda ||M1 Theta M2||_*.

With the QR factors M1 = Q1 R1 and M2^T = Q2 R2 the penalty equals
||R1 Theta R2^T||_*, so in the coordinates C = R1 Theta R2^T the problem is
a plain nuclear norm regression on the designs Z_i = R1^{-T} Xt_i R2^{-1}.
FISTA (Beck & Teboulle 2009) with gradient restart (O'Donoghue & Candes
2015) runs there: one gradient and one singular value soft threshold per
iteration, no linear system; the threshold costs one eigendecomposition of
a min(d1, d2)-square Gram matrix (prox_nuclear). Every CHECK_EVERY
iterations the iterate is certified with the residual r = Z c - y, at the
cost of the singular values of c and the top eigenvalue of a Gram of Z^T r,
no singular vectors:

- the duality gap P - D, with the dual D(theta) = ||y||^2/2n
  - (n lambda^2/2) ||theta + y/(n lambda)||^2 taken at theta = r/(n lambda)
  scaled to feasibility, relative to ||y||^2/2n (the objective at B = 0);
- the dual infeasibility (||Z^T r||_2/n - lambda)_+, relative to the
  instance's lambda_max.

The unreduced problem has Xt_i = X_i and M1, M2 = W1, W2; a screened problem
passes the rotated designs and the composed maps together with the embedding
bases, so solutions always come back in the original p x q coordinates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .model import unvec, vec
from .prox import nuclear_norm, prox_nuclear, spectral_norm

# iterations between two certificate checks
CHECK_EVERY = 5

# a triangular factor whose smallest diagonal entry falls below this share of
# its largest, times its size, marks a rank-deficient penalty map
RANK_RTOL = np.finfo(float).eps

TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class AdmmConfig:
    tol_primal: float = 1e-6     # duality gap, relative to ||y||^2/2n
    tol_dual: float = 1e-6       # dual infeasibility, relative to lambda_max
    max_iter: int = 5000
    track_objective: bool = False

    def __post_init__(self):
        if self.tol_primal <= 0 or self.tol_dual <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class GeneralizedInstance:
    """One solve: designs, responses, penalty maps and embedding bases.

    Xt is (n, d1, d2); stacked is (n, d1*d2) with rows vec(Xt_i).
    M1 (p x d1) and M2 (d2 x q) define the penalty ||M1 Theta M2||_*.
    left (p x d1) and right (q x d2) embed a solution Theta back into the
    original coordinates as B = left @ Theta @ right.T; None means the
    instance is already in original coordinates.
    """

    Xt: np.ndarray
    stacked: np.ndarray
    y: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    lam: float
    left: np.ndarray | None = None
    right: np.ndarray | None = None

    def at_lambda(self, lam):
        """Sibling instance at a new lambda, same maps."""
        if lam <= 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        return replace(self, lam=float(lam))

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def d1(self):
        return self.M1.shape[1]

    @property
    def d2(self):
        return self.M2.shape[0]

    @property
    def p(self):
        return self.M1.shape[0]

    @property
    def q(self):
        return self.M2.shape[1]

    def embed(self, theta_mat):
        """Map a d1 x d2 iterate to original p x q coordinates."""
        b = theta_mat
        if self.left is not None:
            b = self.left @ b
        if self.right is not None:
            b = b @ self.right.T
        return b


def make_instance(problem, weights, lam):
    """Unreduced instance for the original problem at one lambda."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return GeneralizedInstance(
        Xt=problem.X, stacked=problem.stacked, y=problem.y,
        M1=weights.W1, M2=weights.W2, lam=float(lam),
    )


def _triangular_factor(m, name):
    """R of m = Q R; ValueError unless m has full column rank."""
    r = np.linalg.qr(m, mode="r")
    diag = np.abs(np.diag(r))
    if r.shape[0] < r.shape[1] or diag.min() <= RANK_RTOL * r.shape[1] * diag.max():
        raise ValueError(f"penalty map {name} is rank deficient")
    return r


class FactorCache:
    """Per-instance solver data, independent of lambda; built once per path.

    Holds the triangular factors R1, R2 of the penalty maps, the designs
    Z_i = R1^{-T} Xt_i R2^{-1} stacked n x (d1 d2) with rows vec(Z_i), the
    gradient's Lipschitz constant L = ||Z||_2^2/n and the instance's own
    lambda_max = ||sum_i y_i Z_i||_2/n. Raises ValueError when R1 or R2
    is singular.
    """

    def __init__(self, instance):
        n, d1, d2 = instance.n, instance.d1, instance.d2
        self.d1, self.d2 = d1, d2
        if d1 * d2 == 0:
            self.r1, self.r2 = np.eye(d1), np.eye(d2)
            self.Z = np.zeros((n, 0))
            self.lipschitz = self.lambda_max = 0.0
            return
        self.r1 = _triangular_factor(instance.M1, "M1")
        self.r2 = _triangular_factor(instance.M2.T, "M2")
        # R1^{-T} Xt_i for every i at once: columns of xt are indexed (i, b)
        xt = np.moveaxis(instance.Xt, 0, 1).reshape(d1, n * d2)
        a = scipy.linalg.solve_triangular(self.r1, xt, trans="T")
        # then Z_i^T = R2^{-T} (R1^{-T} Xt_i)^T, columns indexed (i, a)
        a = a.reshape(d1, n, d2).transpose(2, 1, 0).reshape(d2, n * d1)
        z = scipy.linalg.solve_triangular(self.r2, a, trans="T")
        # Z_i^T flattened row-major is vec(Z_i)
        self.Z = z.reshape(d2, n, d1).transpose(1, 0, 2).reshape(n, d1 * d2)
        self.lipschitz = float(np.linalg.norm(self.Z, 2)) ** 2 / n
        self.lambda_max = spectral_norm(unvec(self.Z.T @ instance.y, d1, d2)) / n

    def coordinates(self, theta_mat):
        """C = R1 Theta R2^T."""
        return self.r1 @ theta_mat @ self.r2.T

    def solve(self, c_mat):
        """Theta = R1^{-1} C R2^{-T}, by two triangular back-substitutions."""
        if self.d1 * self.d2 == 0:
            return np.zeros((self.d1, self.d2))
        t = scipy.linalg.solve_triangular(self.r1, c_mat)
        return scipy.linalg.solve_triangular(self.r2, t.T).T


def precompute(instance):
    return FactorCache(instance)


@dataclass(frozen=True)
class Solution:
    B: np.ndarray          # embedded p x q solution
    theta: np.ndarray      # (X vec(B) - y) / n
    objective: float
    iters: int
    converged: bool
    solve_time_ms: float
    gap: float             # duality gap relative to ||y||^2/2n
    dual_infeasibility: float   # (||Z^T r||_2/n - lambda)_+ relative to lambda_max
    objective_trace: tuple = ()
    final_state: np.ndarray | None = None   # d1 x d2 iterate, for warm starts


def objective_value(instance, theta_mat):
    """(1/2n) sum (y - <Xt, Theta>)^2 + lambda ||M1 Theta M2||_*."""
    resid = instance.y - instance.stacked @ vec(theta_mat)
    fit = 0.5 / instance.n * float(resid @ resid)
    return fit + instance.lam * nuclear_norm(instance.M1 @ theta_mat @ instance.M2)


def _certificate(instance, cache, c, zc):
    """(relative gap, relative dual infeasibility) at C = c with Z vec(c) = zc."""
    n, lam, y = instance.n, instance.lam, instance.y
    r = zc - y
    dual_norm = spectral_norm(unvec(cache.Z.T @ r, cache.d1, cache.d2)) / n
    primal = 0.5 / n * float(r @ r) + lam * nuclear_norm(c)
    shifted = (r / max(1.0, dual_norm / lam) + y) / (n * lam)
    y_sq = 0.5 / n * float(y @ y)
    dual = y_sq - 0.5 * n * lam * lam * float(shifted @ shifted)
    gap = (primal - dual) / max(y_sq, TINY)
    infeasibility = max(dual_norm - lam, 0.0) / max(cache.lambda_max, TINY)
    return gap, infeasibility


def solve(instance, config=None, cache=None, warm_start=None):
    """Run restarted FISTA to the certificate; never raises on non-convergence.

    warm_start is a d1 x d2 iterate (a previous Solution.final_state).
    Returns the last iterate with converged=False when max_iter is hit;
    callers that require convergence must check the flag.
    """
    config = config or AdmmConfig()
    cache = cache or precompute(instance)
    t0 = time.perf_counter()

    n, d1, d2, lam, y = instance.n, instance.d1, instance.d2, instance.lam, instance.y
    z_mat = cache.Z
    c = np.zeros((d1, d2)) if warm_start is None else cache.coordinates(warm_start)
    zc = z_mat @ vec(c)
    x, zx, t = c, zc, 1.0
    step = 1.0 / cache.lipschitz if cache.lipschitz > 0 else 0.0
    trace = []
    converged = False
    checked_at = None
    it = 0

    while d1 * d2 and it < config.max_iter:
        it += 1
        grad = unvec(z_mat.T @ (zx - y), d1, d2) / n
        c_new = prox_nuclear(x - step * grad, lam * step)
        zc_new = z_mat @ vec(c_new)
        if float(np.vdot(x - c_new, c_new - c)) > 0.0:
            # gradient restart: the step went against the momentum
            x, zx, t = c_new, zc_new, 1.0
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            x = c_new + beta * (c_new - c)
            zx = zc_new + beta * (zc_new - zc)
            t = t_new
        c, zc = c_new, zc_new

        if config.track_objective:
            r = zc - y
            trace.append(0.5 / n * float(r @ r) + lam * nuclear_norm(c))
        if it % CHECK_EVERY == 0:
            gap, infeasibility = _certificate(instance, cache, c, zc)
            checked_at = it
            if gap <= config.tol_primal and infeasibility <= config.tol_dual:
                converged = True
                break

    if checked_at != it:
        # the returned iterate was not checked in the loop (cap, or no iterate)
        gap, infeasibility = _certificate(instance, cache, c, zc)
        converged = gap <= config.tol_primal and infeasibility <= config.tol_dual

    theta_mat = cache.solve(c)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    return Solution(
        B=instance.embed(theta_mat),
        theta=(instance.stacked @ vec(theta_mat) - y) / n,
        objective=objective_value(instance, theta_mat),
        iters=it,
        converged=converged,
        solve_time_ms=elapsed_ms,
        gap=float(gap),
        dual_infeasibility=float(infeasibility),
        objective_trace=tuple(trace),
        final_state=theta_mat,
    )
