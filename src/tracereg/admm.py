"""Gap-certified accelerated proximal gradient solver.

Solves, over Theta in R^{d1 x d2},

    min (1/2n) sum_i (y_i - <Xt_i, Theta>)^2 + lambda ||M1 Theta M2||_*.

With the QR factors M1 = Q1 R1 and M2^T = Q2 R2 the penalty equals
||R1 Theta R2^T||_*, so in the coordinates C = R1 Theta R2^T the problem is
a plain nuclear norm regression on the designs Z_i = R1^{-T} Xt_i R2^{-1}.
FISTA (Beck & Teboulle 2009) with gradient restart (O'Donoghue & Candes
2015) runs there: one gradient and one singular value soft threshold per
iteration, no linear system; the threshold costs one eigendecomposition of
a min(d1, d2)-square Gram matrix (prox_nuclear), partial when the previous
iterate's rank is small (see prox.PARTIAL_EIGEN_SHARE).

The step 1/L_k adapts by two-way backtracking (Scheinberg, Goldfarb & Bai
2014). Iteration k first tries L_k = LIPSCHITZ_SHRINK * L_{k-1} and accepts
the prox step c from the extrapolated point x when the loss's quadratic
upper bound at L_k holds there, ||Z (c - x)||^2/n <= L_k ||c - x||^2. Both
sides come from vectors the loop already holds, so the test costs two dot
products. A rejected trial multiplies L_k by LIPSCHITZ_GROW, up to the
global L = ||Z||_2^2/n at which every step is accepted, and costs one more
prox and one product Z c from the same x and gradient. The momentum follows
t_k = (1 + sqrt(1 + 4 t_{k-1}^2 L_k / L_{k-1}))/2; x is built before L_{k+1}
is known, with t_{k+1} taken at the first trial's ratio. (Building x anew
for each trial, as Scheinberg et al. do, took 10.5 % more prox evaluations
on the benchmark paths walked in ascending lambda.) max_iter counts accepted
steps; Solution.backtracks counts the rejected trials. On the benchmark's
warm full paths, walked from lambda_max down with each level started from
path.extrapolate, the prox count falls from 1 715 / 1 330 / 1 555
(Gaussian 15 x 45, n = 30, seeds 0-2), 385 and 1 150 (cross 32 x 32,
n = 10 and 100) at the fixed step 1/L to 1 239 / 917 / 1 068, 295 and 798,
every level certified.

The iterate is held transposed so that vec is a view, and the loop updates
preallocated buffers in place. Every CHECK_EVERY iterations _certificate
checks the iterate from its residual r = Z c - y, at the cost of one
product Z^T r and the top eigenvalue of its Gram, with ||c||_* from the
prox's spectrum; a pass is confirmed on the same certificate with the
singular values of c. The Solution's objective P, theta = r/n and gap all
come from the certificate of the returned iterate. The certificate is:

- the duality gap P - D, P = ||r||^2/2n + lambda ||c||_*, with the dual
  D(theta) = ||y||^2/2n - (n lambda^2/2) ||theta + y/(n lambda)||^2 taken at
  theta = r/(n lambda) scaled to feasibility, relative to ||y||^2/2n (the
  objective at B = 0);
- the dual infeasibility (||Z^T r||_2/n - lambda)_+, relative to the
  instance's lambda_max.

The unreduced problem has Xt_i = X_i and M1, M2 = W1, W2. A screened level
runs on FactorCache.restrict, C = Q_L C' Q_R^T on the designs Q_L^T Z_i Q_R;
solutions always come back in the original p x q coordinates.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .model import unvec, vec
from .prox import nuclear_norm, prox_nuclear, spectral_norm

# iterations between two certificate checks
CHECK_EVERY = 5

# the step's Lipschitz estimate: each iteration first tries LIPSCHITZ_SHRINK
# times the last accepted one, and a rejected trial multiplies it by
# LIPSCHITZ_GROW, up to the global FactorCache.lipschitz
LIPSCHITZ_SHRINK = 0.95
LIPSCHITZ_GROW = 2.0
# slack on the acceptance test for rounding when the curvature equals L
CURVATURE_RTOL = 1e-12

# a triangular factor whose smallest diagonal entry falls below this share of
# its largest, times its size, marks a rank-deficient penalty map
TRIANGULAR_RTOL = np.finfo(float).eps

TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class AdmmConfig:
    tol_primal: float = 1e-6     # duality gap, relative to ||y||^2/2n
    tol_dual: float = 1e-6       # dual infeasibility, relative to lambda_max
    max_iter: int = 5000

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
    if r.shape[0] < r.shape[1] or diag.min() <= TRIANGULAR_RTOL * r.shape[1] * diag.max():
        raise ValueError(f"penalty map {name} is rank deficient")
    return r


class FactorCache:
    """Per-instance solver data, independent of lambda; built once per path.

    Holds the triangular factors R1, R2 of the penalty maps, the designs
    Z_i = R1^{-T} Xt_i R2^{-1} stacked n x (d1 d2) with rows vec(Z_i), the
    gradient's Lipschitz constant L = ||Z||_2^2/n and the instance's own
    lambda_max = ||sum_i y_i Z_i||_2/n. Raises ValueError when R1 or R2
    is singular. A restriction (see restrict) also holds the orthonormal
    bases Q_L, Q_R of its coordinates C = Q_L C' Q_R^T.
    """

    q_left = q_right = None

    def __init__(self, instance):
        n, d1, d2 = instance.n, instance.d1, instance.d2
        self.d1, self.d2 = d1, d2
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
        self._measure(instance.y)

    def _measure(self, y):
        n = y.shape[0]
        self.lipschitz = spectral_norm(self.Z) ** 2 / n
        self.lambda_max = spectral_norm(unvec(self.Z.T @ y, self.d1, self.d2)) / n

    def restrict(self, instance, u, v):
        """This cache restricted to B = u B' v^T, u and v with orthonormal columns.

        With the thin QRs R1 u = Q_L T_L and R2 v = Q_R T_R, that is
        C = Q_L C' Q_R^T with ||C||_* = ||C'||_*: a nuclear norm regression
        in C' on the designs Q_L^T Z_i Q_R, one contraction of Z.
        """
        restricted = copy.copy(self)
        restricted.q_left = np.linalg.qr(self.r1 @ u)[0]
        restricted.q_right = np.linalg.qr(self.r2 @ v)[0]
        restricted.d1, restricted.d2 = u.shape[1], v.shape[1]
        # rows of Z hold Z_i^T row-major, and (Q_L^T Z_i Q_R)^T = Q_R^T Z_i^T Q_L
        zt = self.Z.reshape(instance.n, self.d2, self.d1)
        zt = np.matmul(np.matmul(restricted.q_right.T, zt), restricted.q_left)
        restricted.Z = zt.reshape(instance.n, restricted.d1 * restricted.d2)
        restricted._measure(instance.y)
        return restricted

    def coordinates(self, theta_mat):
        """C = R1 Theta R2^T, or C' = Q_L^T C Q_R on a restriction."""
        c = self.r1 @ theta_mat @ self.r2.T
        return c if self.q_left is None else self.q_left.T @ c @ self.q_right

    def solve(self, c_mat):
        """Theta = R1^{-1} C R2^{-T} (C = Q_L C' Q_R^T on a restriction)."""
        if self.q_left is not None:
            c_mat = self.q_left @ c_mat @ self.q_right.T
        t = scipy.linalg.solve_triangular(self.r1, c_mat)
        return scipy.linalg.solve_triangular(self.r2, t.T).T


def precompute(instance):
    return FactorCache(instance)


@dataclass(frozen=True)
class Solution:
    B: np.ndarray          # embedded p x q solution
    theta: np.ndarray      # the certified residual over n, (X vec(B) - y) / n
    objective: float       # the certified primal ||r||^2/2n + lambda ||c||_*
    iters: int             # accepted steps
    backtracks: int        # rejected trial steps; iters + backtracks proxes ran
    converged: bool
    solve_time_ms: float
    gap: float             # duality gap relative to ||y||^2/2n
    dual_infeasibility: float   # (||Z^T r||_2/n - lambda)_+ relative to lambda_max
    final_state: np.ndarray | None = None   # d1 x d2 iterate, for warm starts


def objective_value(instance, theta_mat):
    """(1/2n) sum (y - <Xt, Theta>)^2 + lambda ||M1 Theta M2||_*."""
    resid = instance.y - instance.stacked @ vec(theta_mat)
    fit = 0.5 / instance.n * float(resid @ resid)
    return fit + instance.lam * nuclear_norm(instance.M1 @ theta_mat @ instance.M2)


class _Certificate(NamedTuple):
    """A check's data at an iterate c: r = Z vec(c) - y, the fit ||r||^2/2n,
    the dual value D at r/(n lambda) scaled to feasibility, ||y||^2/2n,
    lambda and the dual infeasibility relative to lambda_max."""

    residual: np.ndarray
    fit: float
    dual: float
    y_sq: float
    lam: float
    infeasibility: float

    def gap(self, nuclear):
        """P - D relative to ||y||^2/2n, given ||c||_* = nuclear."""
        return (self.fit + self.lam * nuclear - self.dual) / max(self.y_sq, TINY)


def _certificate(instance, cache, zc):
    """The _Certificate of the iterate c with Z vec(c) = zc."""
    n, lam, y = instance.n, instance.lam, instance.y
    r = zc - y
    dual_norm = spectral_norm(unvec(cache.Z.T @ r, cache.d1, cache.d2)) / n
    shifted = (r / max(1.0, dual_norm / lam) + y) / (n * lam)
    y_sq = 0.5 / n * float(y @ y)
    dual = y_sq - 0.5 * n * lam * lam * float(shifted @ shifted)
    infeasibility = max(dual_norm - lam, 0.0) / max(cache.lambda_max, TINY)
    return _Certificate(r, 0.5 / n * float(r @ r), dual, y_sq, lam, infeasibility)


def _next_momentum(t, ratio):
    """t_{k+1} = (1 + sqrt(1 + 4 t_k^2 L_{k+1} / L_k)) / 2, with ratio = L_{k+1} / L_k."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t * ratio))


def solve(instance, config=None, cache=None, warm_start=None):
    """Run restarted FISTA to the certificate; never raises on non-convergence.

    warm_start is a d1 x d2 iterate (a previous Solution.final_state).
    Returns the last iterate with converged=False when max_iter is hit;
    callers that require convergence must check the flag.
    """
    config = config or AdmmConfig()
    cache = cache or precompute(instance)
    t0 = time.perf_counter()

    def certified(cert, nuclear):
        return cert.gap(nuclear) <= config.tol_primal and cert.infeasibility <= config.tol_dual

    n, lam, y = instance.n, instance.lam, instance.y
    d1, d2 = cache.d1, cache.d2
    z_mat, lipschitz = cache.Z, cache.lipschitz
    # iterates are held transposed, d2 x d1 in C order: their ravel() is then
    # vec of the d1 x d2 matrix, a view that lines up with the rows of Z
    if warm_start is None:
        c = np.zeros((d2, d1))
    else:
        c = np.ascontiguousarray(cache.coordinates(warm_start).T)
    zc = z_mat @ c.ravel()
    x, zx = c.copy(), zc.copy()
    zc_new, resid = np.empty(n), np.empty(n)
    grad = np.empty(d1 * d2)
    point = np.empty((d2, d1))    # the prox input, then c_new - x
    # L of the last accepted step; with Z = 0 the loss is flat and any L fits
    accepted = lipschitz if lipschitz > 0 else 1.0
    # t_{k-1}; t_0 = 0 gives t_1 = 1, so the first two steps take no momentum
    momentum = 0.0
    spectrum = None
    converged = False
    it = backtracks = 0

    while d1 * d2 and it < config.max_iter:
        it += 1
        # the gradient Z^T (Z x - y) / n, scaled on the short side
        np.subtract(zx, y, out=resid)
        resid /= n
        np.matmul(z_mat.T, resid, out=grad)
        trial = LIPSCHITZ_SHRINK * accepted
        while True:
            # the prox step of length 1/L from x; a rejected trial repeats it
            # from the same x and gradient
            np.multiply(grad.reshape(d2, d1), -1.0 / trial, out=point)
            point += x
            c_new, spectrum = prox_nuclear(
                point, lam / trial, spectrum=True,
                rank_hint=None if spectrum is None else spectrum.size)
            np.matmul(z_mat, c_new.ravel(), out=zc_new)
            # accepted when the quadratic model at L bounds the loss at c_new:
            # ||Z (c_new - x)||^2 / n <= L ||c_new - x||^2
            np.subtract(c_new, x, out=point)
            np.subtract(zc_new, zx, out=resid)
            if trial >= lipschitz or float(resid @ resid) / n <= trial * float(
                    np.vdot(point, point)) * (1.0 + CURVATURE_RTOL):
                break
            backtracks += 1
            trial = min(LIPSCHITZ_GROW * trial, lipschitz)
        momentum = _next_momentum(momentum, trial / accepted)
        accepted = trial
        # x is rebuilt below in both branches, so it can hold c_new - c
        np.subtract(c_new, c, out=x)
        if float(np.vdot(point, x)) < 0.0:
            # gradient restart: the step went against the momentum
            np.copyto(x, c_new)
            np.copyto(zx, zc_new)
            momentum = 0.0
        else:
            # the extrapolation takes t_{k+1} at the next first trial's ratio
            beta = (momentum - 1.0) / _next_momentum(momentum, LIPSCHITZ_SHRINK)
            x *= beta
            x += c_new
            np.subtract(zc_new, zc, out=zx)
            zx *= beta
            zx += zc_new
        c = c_new
        zc, zc_new = zc_new, zc

        # ||c||_* from the prox's own spectrum; a pass is confirmed with the
        # singular values of c itself, so every accepted gap is exact
        if it % CHECK_EVERY == 0:
            certificate = _certificate(instance, cache, zc)
            estimate = nuclear_norm(c) if spectrum is None else float(spectrum.sum())
            if certified(certificate, estimate) and certified(
                    certificate, nuclear := nuclear_norm(c)):
                converged = True
                break

    if not converged:
        # the returned iterate (cap, or no iterate), certified exactly
        certificate, nuclear = _certificate(instance, cache, zc), nuclear_norm(c)
        converged = certified(certificate, nuclear)

    theta_mat = cache.solve(c.T)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    return Solution(
        B=instance.embed(theta_mat),
        theta=certificate.residual / n,
        objective=certificate.fit + lam * nuclear,
        iters=it,
        backtracks=backtracks,
        converged=converged,
        solve_time_ms=elapsed_ms,
        gap=certificate.gap(nuclear),
        dual_infeasibility=certificate.infeasibility,
        final_state=theta_mat,
    )
