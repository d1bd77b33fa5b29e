"""Gap-certified accelerated proximal gradient solver.

Solves, over Theta in R^{d1 x d2},

    min (1/2n) sum_i (y_i - <Xt_i, Theta>)^2 + lambda ||M1 Theta M2||_*.

With the QR factors M1 = Q1 R1 and M2^T = Q2 R2 the penalty equals
||R1 Theta R2^T||_*, so in the coordinates C = R1 Theta R2^T the problem is
a plain nuclear norm regression on the designs Z_i = R1^{-T} Xt_i R2^{-1}.
FactorCache builds them once per instance from the explicit inverses of R1
and R2 (LAPACK trtri), by two matrix products over all n designs; at
32 x 32, n = 100 each takes 0.22 ms where a triangular solve on the same
3 200 right-hand sides took 1.18 ms (one BLAS thread).

FISTA (Beck & Teboulle 2009) with gradient restart (O'Donoghue & Candes
2015) runs there: one gradient and one singular value soft threshold per
iteration; the threshold costs one eigendecomposition of a min(d1, d2)-square
Gram matrix (prox_nuclear), partial when the previous iterate's rank is
small (see prox.PARTIAL_EIGEN_SHARE). A FISTA step solves no linear system;
the Newton polish below solves one per step.

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
path.extrapolate, the prox count falls from 925 / 1 050 / 1 110 (Gaussian
15 x 45, n = 30, seeds 0-2), 290 and 950 (cross 32 x 32, n = 10 and 100)
at the fixed step 1/L to 754 / 722 / 751, 215 and 654 before the Newton
polish below, every level certified.

The iterate is held transposed so that vec is a view, and the loop updates
preallocated buffers in place. Every CHECK_EVERY iterations, and at the
first iteration of a warm start, _check certifies the iterate from its
residual r = Z c - y, at the cost of one product Z^T r and the top
eigenvalue of its Gram, with ||c||_* from the prox's spectrum; a pass is
confirmed with the singular values of c. The Solution's objective P,
theta = r/n, gap and dual point all come from the certificate that accepted
the returned iterate. The certificate is:

- the duality gap P - D, P = ||r||^2/2n + lambda ||c||_*, with the dual
  D(theta) = ||y||^2/2n - (n lambda^2/2) ||theta + y/(n lambda)||^2 taken at
  a dual feasible point, relative to ||y||^2/2n (the objective at B = 0);
- the dual infeasibility (||Z^T r||_2/n - lambda)_+ of the iterate, relative
  to the instance's lambda_max.

The dual point is first the radial one, theta = r/(n lambda) scaled to
feasibility, as in gap-safe rules (Ndiaye, Fercoq, Gramfort & Salmon, JMLR
2017). Scaling all of r costs D in proportion to the excess
||Z^T r||_2/(n lambda) - 1, so near the optimum the gap stays almost all
dual. When that point fails, the infeasibility passes and the gate
(FACE_GATE) admits it, the residual is first moved onto the active face of
the nuclear norm's subdifferential (_face_certificate) and then scaled; its
norm is computed exactly, so that point is feasible too and D stays a
lower bound. The correction moves only the dual point: the certificate's
G = unvec(Z^T r)/n and ||G||_2 stay those of the checked iterate. With the
radial point alone the warm full paths above took 1 239 / 917 / 1 068, 295
and 798 prox evaluations.

Most failed checks late in a solve fail on first-order stationarity, not on
the rank: before the polish below, 104 of 122 failed checks on the warm
Gaussian path (seed 0) failed on dual infeasibility, and 112 of 113 on
cross 32 x 32 n = 100. So after a failed check with the prox's kept rank
r >= 1 unchanged since the previous check (on a cold solve, also one that
passes FACE_GATE's gap test; see below), the iterate is polished on its
rank-r face: factored as C = A B^T, it takes NEWTON_STEPS damped Newton
steps on the factored objective of Burer & Monteiro (Math. Program. 2003),
a manifold acceleration in the sense of Bareilles, Iutzeler & Malick
(Math. Program. 2022), and A B^T is certified by the same _check. A pass
returns it (Solution.primal_kind "newton"); otherwise FISTA goes on from
its own iterate with its momentum (a feasible miss first runs more rounds;
see below). The polish starts from the factors the prox computed for the
checked iterate (prox_nuclear with factors=True), not from an SVD of it,
and every round's first step takes G and ||G||_2 from the check before it,
whichever dual point that check tried.
The warm full paths above then take 227 / 217 / 215, 100 and 178 prox
evaluations, with 10 / 13 / 14, 10 and 10 levels certified on
the polished point; at tolerance 1e-8 the Gaussian paths take 376 / 248 /
268.

A warm start is the solution of the level above, extrapolated, so its rank
is usually already the right one. solve is told that rank (warm_rank) and
checks a warm start at its first iteration too, where the polish gate
compares the kept rank with it. The warm full paths then take 110 / 94 /
98, 52 and 163 prox evaluations; 13 / 12 / 13, 2 and 0 of their levels
certify at iteration 1, on FISTA's first iterate or its polish. A cold solve
keeps the schedule of a check every CHECK_EVERY iterations. Checked at
iteration 1 too, cold solves certified polished points short of the usual
stationarity: on 40 small Gaussian solves at tolerance 1e-8, the subgradient
residual of one read 6.2e-7, against at most 5.0e-14 on the schedule.

On a warm solve the gap test held tries back at the right rank: at the
iteration-1 checks of cross 32 x 32 n = 100, P - D at the unscaled residual
reads 550 to 6 900 tol_primal. So a warm solve admits a try on the rank
alone, and only a cold one also asks FACE_GATE's gap test (on cold solves
too, rank alone certified polished points with a stationarity residual of
3.2e-7 at tolerance 1e-8). And a try does not end at a polished point that
fails its check but is dual feasible: it takes NEWTON_STEPS more steps from
that point's own factors and checks again, round after round, while each
round's gap is at most NEWTON_GAP_SHRINK times the previous round's, as
Newton steps on an identified face converge fast (Bareilles, Iutzeler &
Malick). A try that ends without a pass leaves FISTA's iterate and momentum
as they were. The warm full paths then take 46 / 33 / 46, 28 and 73 prox
evaluations and 34 / 32 / 34, 20 and 40 Newton steps, every level
certified; 16 / 18 / 16, 8 and 3 of their levels certify at iteration 1.

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
from scipy.linalg import lapack

from .model import unvec, vec
from .prox import (
    _check_info,
    nuclear_norm,
    prox_nuclear,
    singular_pairs_above,
    spectral_norm,
)

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

_posv = lapack.dposv
_potrf = lapack.dpotrf
_trtri = lapack.dtrtri

# the face-corrected dual point (_face_certificate) moves the residual onto
# the face spanned by the singular pairs of G with sigma > (1 - FACE_DELTA)
# lambda. Prox evaluations on the seven warm full paths of Gaussian 15 x 45
# n = 30 (seeds 0-2) and cross 32 x 32 and 64 x 64 (n = 10, 100), by delta:
# 10^-3 881 / 734 / 781, 215 / 654, 565 / 662; 10^-2 754 / 722 / 751,
# 215 / 654, 571 / 662; 10^-1 776 / 692 / 751, 255 / 769, 571 / 774.
FACE_DELTA = 1e-2

# a check that fails on the radial point tries the face-corrected one only
# when the iterate's dual infeasibility passes and P - D at the unscaled
# residual r (not a bound: r is infeasible) is within FACE_GATE * tol_primal;
# the correction moves r little, so a larger gap there rarely certifies. A
# correction costs a partial eigensolve, one contraction of Z, a k^2-square
# Cholesky solve and one more Z^T r product with its eigensolve: 100-230 us
# at 15 x 45 (k = 1-3) and 300-770 us at 32 x 32, n = 100 (k = 1-8), against
# about 100 us per prox step. Prox evaluations per warm full path (Gaussian
# seeds 0-2; cross 32 x 32 n = 10 and 100) and corrections run, by gate:
#   radial only  1 239 / 917 / 1 068, 295, 798
#   1            1 005 / 778 / 825, 295, 659    (12 / 14 / 14, 0, 6)
#   10           851 / 741 / 756, 235, 654      (15 / 15 / 15, 9, 7)
#   100          754 / 722 / 751, 215, 654      (26 / 19 / 17, 15, 7)
#   no gate      754 / 722 / 741, 215, 654      (36 / 22 / 19, 17, 8)
# Without the gate the benchmark's Gaussian cold solves at 0.3 lambda_max
# ran corrections that saved no prox step; at 100 they run none. (All of
# these counts were measured before the Newton polish below.) A cold solve's
# polish gate reads the same test; a warm solve's reads the rank alone, as
# the test held back tries at the right rank (see NEWTON_STEPS).
FACE_GATE = 100.0

# after a failed check with the prox's kept rank r >= 1 unchanged since the
# previous check (on a cold solve, also with its gap within the same gate),
# the solver factors the iterate as C = A B^T on rank r and takes
# NEWTON_STEPS damped Newton steps
# on phi(A, B) = ||Z vec(A B^T) - y||^2/2n + lambda (||A||_F^2 + ||B||_F^2)/2
# (_newton_point), then checks A B^T. Prox evaluations on the warm full
# paths of Gaussian 15 x 45 n = 30 (seeds 0-2) and cross 32 x 32 (n = 10,
# 100) with one, two and three steps, before warm levels were checked at
# their first iteration: 331 / 252 / 257, 100, 251; 227 / 217 / 215, 100,
# 178; 210 / 212 / 215, 100, 178. Three steps were slower in wall time on
# four of the five paths (best of 7). With the check at iteration 1 the
# two-step paths take 110 / 94 / 98, 52 and 163, and run 18 / 16 / 16, 10
# and 13 tries; with warm tries admitted on the rank alone and continued
# (NEWTON_GAP_SHRINK), 46 / 33 / 46, 28 and 73, and 15 / 13 / 16, 10 and 15
# tries. The Hessian's curvature term lambda I is raised to
# lambda' = lambda + (||G||_2 - lambda)_+ + NEWTON_DAMPING lambda, which makes
# it positive definite whatever the rotation gauge (A Omega, B Omega) does,
# so one Cholesky factorization per step suffices. Each round's first step
# takes G and ||G||_2 from the certificate of the check just before it,
# which holds them at the same point whichever dual point it tried
# (_polish). A try's first round
# (two steps and the check, from the prox's factors and on the whitened
# Woodbury system) costs 0.33-0.55 ms at 15 x 45 (r = 3), 0.31-0.39 ms at
# 32 x 32 n = 10 (r = 1), and 0.77 ms (r = 1) to 1.7-2.3 ms (r = 7-8) at
# 32 x 32 n = 100, against 0.38-0.61, 0.34-0.39, 0.80 and 2.0-3.0 ms with
# the gradient recomputed and L applied by triangular solves (best of 5 per
# try on the warm paths' own tries, one BLAS thread, shared 2-core machine).
NEWTON_STEPS = 2
NEWTON_DAMPING = 1e-10

# a try whose polished point fails its check while dual feasible goes on
# from that point's factors (A, B), NEWTON_STEPS more steps and a check per
# round, while each round's gap is at most NEWTON_GAP_SHRINK times the
# previous round's. A failed gap exceeds tol_primal, so a try runs at most
# 2 + log2(g / tol_primal) rounds, g its first round's gap; the longest on
# the paths below ran 5. Prox evaluations / Newton steps on the seven warm
# full paths, Gaussian 15 x 45 n = 30 (seeds 0-2), cross 32 x 32 n = 10 and
# 100, cross 64 x 64 n = 10 and 100, with warm tries admitted on the rank
# alone, by factor:
#   one round    78/42, 51/34, 51/34, 28/20, 112/46, 128/52, 109/38
#   0.1          46/34, 33/32, 46/34, 28/20, 78/42, 87/64, 59/32
#   0.25         46/34, 33/32, 46/34, 28/20, 78/42, 62/54, 59/32
#   0.5 to 1     46/34, 33/32, 46/34, 28/20, 73/40, 42/42, 59/32
# every level certified. A factor of 1 would let a try whose gap stalls run
# without end. On Gaussian 10 x 15 n = 400 (seed 3, k = 30) one round and
# 0.5 leave the same 6 of 30 levels uncertified, in 39 141 and 35 536
# iterations.
NEWTON_GAP_SHRINK = 0.5


@dataclass(frozen=True)
class AdmmConfig:
    tol_primal: float = 1e-6     # duality gap, relative to ||y||^2/2n
    tol_dual: float = 1e-6       # dual infeasibility, relative to lambda_max
    max_iter: int = 5000

    def __post_init__(self):
        if not (0.0 < self.tol_primal < math.inf and 0.0 < self.tol_dual < math.inf):
            raise ValueError(f"tolerances must be positive and finite, got "
                             f"{self.tol_primal} and {self.tol_dual}")
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
        return replace(self, lam=_checked_lambda(lam))

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
    return GeneralizedInstance(
        Xt=problem.X, stacked=problem.stacked, y=problem.y,
        M1=weights.W1, M2=weights.W2, lam=_checked_lambda(lam),
    )


def _checked_lambda(lam):
    """lam as a float; ValueError unless it is finite and positive."""
    lam = float(lam)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    return lam


def _triangular_factor(m, name):
    """R of m = Q R; ValueError unless m has full column rank."""
    r = np.linalg.qr(m, mode="r")
    diag = np.abs(np.diag(r))
    if r.shape[0] < r.shape[1] or diag.min() <= TRIANGULAR_RTOL * r.shape[1] * diag.max():
        raise ValueError(f"penalty map {name} is rank deficient")
    return r


class FactorCache:
    """Per-instance solver data, independent of lambda; built once per path.

    Holds the triangular factors R1, R2 of the penalty maps and their
    inverses r1_inv, r2_inv (LAPACK trtri, once the rank test has passed),
    the designs Z_i = R1^{-T} Xt_i R2^{-1} stacked n x (d1 d2) with rows
    vec(Z_i), the gradient's Lipschitz constant L = ||Z||_2^2/n and the
    instance's own lambda_max = ||sum_i y_i Z_i||_2/n. Every Z_i^T =
    (Xt_i R2^{-1})^T R1^{-1} comes from two products over the stacked
    designs, (n d1 x d2) R2^{-1} and then (n d2 x d1) R1^{-1}, and solve maps
    C back by products with the same inverses. Raises ValueError when R1 or
    R2 is singular. A restriction (see restrict) keeps the inverses and also
    holds the orthonormal bases Q_L, Q_R of its coordinates C = Q_L C' Q_R^T.
    """

    q_left = q_right = None
    _z_rows = None

    def __init__(self, instance):
        n, d1, d2 = instance.n, instance.d1, instance.d2
        self.d1, self.d2 = d1, d2
        self.r1 = _triangular_factor(instance.M1, "M1")
        self.r2 = _triangular_factor(instance.M2.T, "M2")
        self.r1_inv = _upper_inverse(self.r1)
        self.r2_inv = _upper_inverse(self.r2)
        # Xt_i R2^{-1} for every i at once, stacked (n d1) x d2
        a = instance.Xt.reshape(n * d1, d2) @ self.r2_inv
        # then Z_i^T = (Xt_i R2^{-1})^T R1^{-1}, stacked (n d2) x d1; Z_i^T
        # flattened row-major is vec(Z_i)
        a = a.reshape(n, d1, d2).transpose(0, 2, 1).reshape(n * d2, d1)
        self.Z = (a @ self.r1_inv).reshape(n, d1 * d2)
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
        restricted._z_rows = None
        restricted._measure(instance.y)
        return restricted

    def z_rows(self):
        """The designs Z_i row-major, (n d1) x d2, built on first use.

        Z holds Z_i^T row-major, so Z seen as (n d2) x d1 gives every Z_i^T A
        in one product; this layout does the same for every Z_i B.
        """
        if self._z_rows is None:
            n = self.Z.shape[0]
            rows = self.Z.reshape(n, self.d2, self.d1).transpose(0, 2, 1)
            self._z_rows = np.ascontiguousarray(rows).reshape(n * self.d1, self.d2)
        return self._z_rows

    def coordinates(self, theta_mat):
        """C = R1 Theta R2^T, or C' = Q_L^T C Q_R on a restriction."""
        c = self.r1 @ theta_mat @ self.r2.T
        return c if self.q_left is None else self.q_left.T @ c @ self.q_right

    def solve(self, c_mat):
        """Theta = R1^{-1} C R2^{-T} (C = Q_L C' Q_R^T on a restriction)."""
        if self.q_left is not None:
            c_mat = self.q_left @ c_mat @ self.q_right.T
        return self.r1_inv @ c_mat @ self.r2_inv.T


def _upper_inverse(r):
    """r^-1 for an upper triangular r, by LAPACK trtri on the lower r^T.

    r is held row-major, so r^T is already in LAPACK's column-major order,
    and the transpose of the returned (r^T)^-1 is r^-1 row-major.
    """
    inverse, info = _trtri(r.T, lower=1)
    _check_info(info, "trtri")
    return inverse.T


def precompute(instance):
    """The instance's FactorCache: its designs in the penalty's coordinates C."""
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
    # the dual feasible point t the gap was taken at, in theta's scale: t/lambda
    # has dual gauge <= 1 and D = ||y||^2/2n - ||n t + y||^2/2n
    dual_point: np.ndarray
    dual_kind: str         # "radial" (r/n scaled) or "face" (corrected, then scaled)
    newton_steps: int      # Newton steps run, NEWTON_STEPS per round of each polish tried
    primal_kind: str       # "iterate" (FISTA's) or "newton" (the polished point)


def objective_value(instance, theta_mat):
    """(1/2n) sum (y - <Xt, Theta>)^2 + lambda ||M1 Theta M2||_*."""
    resid = instance.y - instance.stacked @ vec(theta_mat)
    fit = 0.5 / instance.n * float(resid @ resid)
    return fit + instance.lam * nuclear_norm(instance.M1 @ theta_mat @ instance.M2)


class _Certificate(NamedTuple):
    """A check's data at an iterate c, with r = Z vec(c) - y.

    gradient is G = unvec(Z^T r)/n and dual_norm its ||G||_2, both at the
    checked iterate whatever the point; point is a dual feasible point in
    theta's scale, the radial one or the face-corrected one (kind), and
    dual its D.
    """

    residual: np.ndarray
    fit: float             # ||r||^2/2n
    gradient: np.ndarray
    dual_norm: float
    point: np.ndarray
    dual: float
    y_sq: float            # ||y||^2/2n
    lam: float
    infeasibility: float   # (||G||_2 - lambda)_+ of r, relative to lambda_max
    kind: str              # "radial" or "face"

    def gap(self, nuclear, dual=None):
        """P - D relative to ||y||^2/2n, given ||c||_* = nuclear; D defaults to self.dual."""
        dual = self.dual if dual is None else dual
        return (self.fit + self.lam * nuclear - dual) / max(self.y_sq, TINY)


def _scaled_point(instance, residual, dual_norm):
    """residual/n scaled onto the dual feasible set, given its ||G||_2, and its D."""
    n, lam, y = instance.n, instance.lam, instance.y
    point = residual / (n * max(1.0, dual_norm / lam))
    shifted = n * point + y
    return point, 0.5 / n * (float(y @ y) - float(shifted @ shifted))


def _certificate(instance, cache, zc):
    """The radial _Certificate of the iterate c with Z vec(c) = zc."""
    n, lam, y = instance.n, instance.lam, instance.y
    r = zc - y
    gradient = unvec(cache.Z.T @ r, cache.d1, cache.d2) / n
    dual_norm = spectral_norm(gradient)
    point, dual = _scaled_point(instance, r, dual_norm)
    y_sq = 0.5 / n * float(y @ y)
    infeasibility = max(dual_norm - lam, 0.0) / max(cache.lambda_max, TINY)
    return _Certificate(r, 0.5 / n * float(r @ r), gradient, dual_norm, point, dual, y_sq,
                        lam, infeasibility, "radial")


def _face_certificate(instance, cache, certificate):
    """The certificate at the residual moved onto the active face, or None.

    At the optimum the singular pairs (U_k, V_k) of G with sigma = lambda
    span the face of the nuclear norm's subdifferential where
    U_k^T G V_k = lambda I_k (Watson, Linear Algebra Appl. 1992). Taking the
    pairs with sigma > (1 - FACE_DELTA) lambda, with A the n x k^2 matrix of
    rows vec(U_k^T Z_i V_k)/n, the residual moves by the least-norm Delta
    with A^T (r + Delta) = lambda vec(I_k), Delta = A (A^T A)^{-1} (lambda
    vec(I_k) - A^T r), and r + Delta is scaled onto the feasible set with
    its exact ||G||_2 like the radial point. Only point, dual and kind
    change: gradient and dual_norm stay those of the checked iterate, and
    the moved residual's own serve only to scale its point. None when
    k = 0, k^2 > n or A^T A is not numerically positive definite.
    """
    n, lam, r = instance.n, instance.lam, certificate.residual
    d1, d2 = cache.d1, cache.d2
    u, _, v = singular_pairs_above(certificate.gradient, (1.0 - FACE_DELTA) * lam)
    k = u.shape[1]
    if not k or k * k > n:
        return None
    # rows of Z hold Z_i^T row-major: one product with Z seen as (n d2) x d1
    # gives every Z_i^T U_k, and V_k^T Z_i^T U_k holds v_b^T Z_i^T u_a at (b, a)
    zu = (cache.Z.reshape(n * d2, d1) @ u).reshape(n, d2, k)
    a = np.matmul(v.T, zu).reshape(n, k * k) / n
    _, w, info = _posv(a.T @ a, lam * np.eye(k).ravel() - a.T @ r)
    if info:
        return None
    moved = r + a @ w
    dual_norm = spectral_norm(unvec(cache.Z.T @ moved, d1, d2) / n)
    point, dual = _scaled_point(instance, moved, dual_norm)
    return certificate._replace(point=point, dual=dual, kind="face")


def _unscaled_gap(instance, certificate, zc, nuclear):
    """P - D at the unscaled residual r = zc - y, relative; not a bound, as r is infeasible."""
    return certificate.gap(nuclear, certificate.y_sq - 0.5 / instance.n * float(zc @ zc))


def _check(instance, cache, zc, c, estimate, config):
    """Certify the iterate c with Z vec(c) = zc: (certificate, ||c||_*, passed).

    estimate is ||c||_* as the prox's spectrum reports it, or None to take
    it from the singular values of c; a gap that passes on the estimate is
    confirmed on c's own, so a passed gap is exact. The radial point is
    tried first; when it fails, on the estimate or on the confirmation, and
    the gate (FACE_GATE) admits it, the face-corrected point is tried. The
    returned certificate is the one that passed, or else the better of the
    points tried; its nuclear norm is exact when estimate is None.
    """
    certificate = _certificate(instance, cache, zc)
    nuclear = nuclear_norm(c) if estimate is None else estimate
    exact = estimate is None
    if certificate.infeasibility > config.tol_dual:
        return certificate, nuclear, False

    def passes(cert):
        nonlocal nuclear, exact
        if cert.gap(nuclear) > config.tol_primal:
            return False
        if not exact:
            nuclear, exact = nuclear_norm(c), True
        return cert.gap(nuclear) <= config.tol_primal

    if passes(certificate):
        return certificate, nuclear, True
    if _unscaled_gap(instance, certificate, zc, nuclear) > FACE_GATE * config.tol_primal:
        return certificate, nuclear, False
    face = _face_certificate(instance, cache, certificate)
    if face is None or face.dual <= certificate.dual:
        return certificate, nuclear, False
    return face, nuclear, passes(face)


def _polish(instance, cache, s, u, v, certificate, config):
    """One Newton try on the iterate's rank-r face: (check, point, steps run).

    The iterate as the solver holds it, C^T, is u diag(s) v^T, the factors
    of the prox that produced it (prox_nuclear with factors=True), and
    certificate is its failed check. The try starts from the balanced pair
    A = v S^(1/2), B = u S^(1/2), where ||C||_* = (||A||_F^2 + ||B||_F^2)/2,
    and runs rounds of _newton_point, each checked by _check. A round that
    fails its check but stays dual feasible is followed by another from its
    own factors, as long as each round's gap is at most NEWTON_GAP_SHRINK
    times the previous round's. Each round's first step takes G and
    ||G||_2 from the check before it, which holds them at that check's
    iterate whichever dual point it tried.
    check is the passing _check and point the polished C^T, or both None
    when the try ends without a pass: a failed factorization, an infeasible
    point or a round that did not shrink the gap enough.
    """
    root = np.sqrt(s)
    factors, steps, previous = (v * root, u * root), 0, math.inf
    while True:
        polished = _newton_point(instance, cache, *factors,
                                 start=(certificate.gradient, certificate.dual_norm))
        steps += NEWTON_STEPS
        if polished is None:
            return None, None, steps
        point, zc, factors = polished
        check = _check(instance, cache, zc, point, None, config)
        certificate, nuclear, passed = check
        if passed:
            return check, point, steps
        gap = certificate.gap(nuclear)
        if certificate.infeasibility > config.tol_dual or gap > NEWTON_GAP_SHRINK * previous:
            return None, None, steps
        previous = gap


def _newton_point(instance, cache, a, b, start=None):
    """NEWTON_STEPS damped Newton steps from the factors (A, B) of C = A B^T.

    start is (G, ||G||_2) at A B^T (see _newton_step), as the check of
    A B^T just computed them (_Certificate.gradient and dual_norm), so that
    the first step skips them; None computes them.
    Returns (A' B'^T)^T, Z vec(A' B'^T) and the new factors (A', B'), or
    None when a factorization fails: the damping is relative to lambda, so
    at lambda far below lambda_max rounding in J^T J/n can outweigh it
    (Gaussian 4 x 4, n = 16, below 1e-5 lambda_max).
    """
    try:
        for _ in range(NEWTON_STEPS):
            a, b = _newton_step(instance, cache, a, b, start)
            start = None
    except np.linalg.LinAlgError:
        return None
    polished = b @ a.T
    return polished, cache.Z @ polished.ravel(), (a, b)


def _newton_step(instance, cache, a, b, start=None):
    """One damped Newton step on phi(A, B) (see NEWTON_STEPS); the new (A, B).

    With rho = Z vec(A B^T) - y and G = unvec(Z^T rho)/n, the gradient is
    g = (G B + lambda A, G^T A + lambda B) and the damped Hessian is
    H = J^T J/n + D: row i of J is (vec(Z_i B), vec(Z_i^T A)) and
    D(P, Q) = (lambda' P + G Q, G^T P + lambda' Q), so D >= NEWTON_DAMPING
    lambda I. H (P, Q) = -g is solved through the smaller system: H itself
    when n >= r (d1 + d2) (_dense_direction), else the n-square one of
    Woodbury's identity (_woodbury_direction). P and Q are flattened
    row-major, d1 x r then d2 x r. start is (G, ||G||_2), or None to compute
    them at A B^T.
    """
    n, lam, y = instance.n, instance.lam, instance.y
    d1, d2 = cache.d1, cache.d2
    rank = a.shape[1]
    z = cache.Z
    if start is None:
        rho = z @ (b @ a.T).ravel() - y
        g = unvec(z.T @ rho, d1, d2) / n
        start = g, spectral_norm(g)
    g, dual_norm = start
    rhs = -np.concatenate([(g @ b + lam * a).ravel(), (g.T @ a + lam * b).ravel()])
    # the two halves of J, rows (Z_i B)[a, k] and (Z_i^T A)[b, k]
    jac_a = (cache.z_rows() @ b).reshape(n, d1 * rank)
    jac_b = (z.reshape(n * d2, d1) @ a).reshape(n, d2 * rank)
    shift = lam + max(dual_norm - lam, 0.0) + NEWTON_DAMPING * lam
    direction = _dense_direction if n >= rank * (d1 + d2) else _woodbury_direction
    step = direction(g, jac_a, jac_b, shift, rhs)
    return a + step[:d1 * rank].reshape(d1, rank), b + step[d1 * rank:].reshape(d2, rank)


def _dense_direction(g, jac_a, jac_b, shift, rhs):
    """H^-1 rhs from the Cholesky factor of H, r (d1 + d2) square."""
    n, rank = jac_a.shape[0], jac_a.shape[1] // g.shape[0]
    split = jac_a.shape[1]
    jac = np.hstack([jac_a, jac_b])
    h = jac.T @ jac
    h /= n
    h[np.diag_indices(h.shape[0])] += shift
    # G Q at (a, k) is sum_b G[a, b] Q[b, k]: the block kron(G, I_r)
    coupling = np.kron(g, np.eye(rank))
    h[:split, split:] += coupling
    h[split:, :split] += coupling.T
    return _spd_solve(h, rhs)


def _woodbury_direction(g, jac_a, jac_b, shift, rhs):
    """H^-1 rhs through Woodbury's identity on a whitened n-square system.

    D (see _newton_step) is inverted through the Cholesky factor
    lambda'^2 I - G G^T = L L^T, positive definite as lambda' > ||G||_2:
    D^-1 (P, Q) = (X, Y) with X = L^-T w(P, Q), w(P, Q) = L^-1 (lambda' P -
    G Q), and Y = (Q - G^T X)/lambda'. Then <(P', Q'), D^-1 (P, Q)> =
    (<w(P', Q'), w(P, Q)> + <Q', Q>)/lambda', so with K the n x r (d1 + d2)
    matrix of rows (w(Z_i B, Z_i^T A), Z_i^T A), J D^-1 J^T = K K^T/lambda' and

        H^-1 rhs = D^-1 (rhs - J^T u),  (n lambda' I + K K^T) u = K (w(rhs), rhs_Q).

    L^-1 is formed once (trtri), so whitening J is one product with L^-T on
    its n r rows, and D^-1 is applied to one d1 x r and one d2 x r block by
    products with L^-1 and L^-T: a triangular solve on J's columns ran at a
    tenth of GEMM's rate.
    """
    (d1, d2), n = g.shape, jac_a.shape[0]
    rank = jac_a.shape[1] // d1
    shifted = -(g @ g.T)
    shifted[np.diag_indices(d1)] += shift * shift
    # potrf zeroes the upper triangle, which trtri leaves as it is
    factor, info = _potrf(shifted, lower=1, overwrite_a=1)
    _check_info(info, "potrf")
    inverse, info = _trtri(factor, lower=1, overwrite_c=1)
    _check_info(info, "trtri")

    # (Z_i B)^T and (Z_i^T A)^T stacked, (n r) x d; w(Z_i B, Z_i^T A)^T is
    # then the row block i of `white`, and row i of K holds it flattened
    def stacked(rows, d):
        return rows.reshape(n, d, rank).transpose(0, 2, 1).reshape(n * rank, d)

    white = stacked(jac_b, d2) @ g.T
    np.subtract(shift * stacked(jac_a, d1), white, out=white)
    white = (white @ inverse.T).reshape(n, rank * d1)
    small = white @ white.T
    small += jac_b @ jac_b.T
    small[np.diag_indices(n)] += n * shift
    p, q = rhs[:d1 * rank].reshape(d1, rank), rhs[d1 * rank:].reshape(d2, rank)
    white_rhs = inverse @ (shift * p - g @ q)
    u = _spd_solve(small, white @ white_rhs.T.ravel() + jac_b @ q.ravel())
    # D^-1 (rhs - J^T u), with w(rhs - J^T u) = w(rhs) - sum_i u_i w(J_i)
    white_rhs -= (white.T @ u).reshape(rank, d1).T
    x = inverse.T @ white_rhs
    y = q - (jac_b.T @ u).reshape(d2, rank)
    y -= g.T @ x
    y /= shift
    return np.concatenate([x.ravel(), y.ravel()])


def _spd_solve(m, rhs):
    """m^-1 rhs for a symmetric positive definite m; both are overwritten."""
    _, out, info = _posv(m, rhs, overwrite_a=1, overwrite_b=1)
    _check_info(info, "posv")
    return out

def _next_momentum(t, ratio):
    """t_{k+1} = (1 + sqrt(1 + 4 t_k^2 L_{k+1} / L_k)) / 2, with ratio = L_{k+1} / L_k."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t * ratio))


def solve(instance, config=None, cache=None, warm_start=None, warm_rank=None):
    """Run restarted FISTA, with its Newton polish, to the certificate.

    Never raises on non-convergence. The returned point is FISTA's iterate
    or, when it certified first, the polished one (Solution.primal_kind).

    warm_start is Theta in the instance's coordinates: a previous
    Solution.B for an instance without embedding bases. A warm solve is
    also checked at its first iteration, where the polish gate compares the
    prox's kept rank with warm_rank, the rank of the solution the start was
    built from (None: no polish there); its gate reads the rank alone, while
    a cold solve's also reads FACE_GATE's gap test. A cold solve ignores
    warm_rank.
    Returns the last iterate with converged=False when max_iter is hit;
    callers that require convergence must check the flag.
    """
    config = config or AdmmConfig()
    cache = cache or precompute(instance)
    t0 = time.perf_counter()

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
    # the prox's kept rank at the last check, None when unknown; a warm start
    # is checked at iteration 1 too, against the rank it was built from
    warm = warm_start is not None
    checked_rank = warm_rank if warm else None
    converged = False
    primal_kind = "iterate"
    it = backtracks = newton_steps = 0

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
            c_new, spectrum, left, right = prox_nuclear(
                point, lam / trial, factors=True,
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

        # ||c||_* from the prox's own spectrum, confirmed on c at a pass
        if it % CHECK_EVERY == 0 or (warm and it == 1):
            certificate, nuclear, converged = _check(
                instance, cache, zc, c,
                None if spectrum is None else float(spectrum.sum()), config)
            if converged:
                break
            rank = None if spectrum is None else spectrum.size
            if rank and rank == checked_rank and (warm or _unscaled_gap(
                    instance, certificate, zc, nuclear) <= FACE_GATE * config.tol_primal):
                # polish on the rank-r face; FISTA's own state is left as it is
                newton, polished, steps = _polish(instance, cache, spectrum, left, right,
                                                  certificate, config)
                newton_steps += steps
                if newton:
                    certificate, nuclear, converged = newton
                    c, primal_kind = polished, "newton"
                    break
            checked_rank = rank

    if not converged:
        # the returned iterate (cap, or no iterate), certified exactly
        certificate, nuclear, converged = _check(instance, cache, zc, c, None, config)

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
        dual_point=certificate.point,
        dual_kind=certificate.kind,
        newton_steps=newton_steps,
        primal_kind=primal_kind,
    )
