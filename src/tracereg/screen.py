"""Safe subspace screening for the solution path.

Given the dual estimate at a smaller lambda0, the dual solution at lambda
is confined to the region

    Omega = {theta : <theta_prev + y/(n lambda0), theta - theta_prev> >= 0}
            intersect {theta : ||theta - c|| <= eta},

a half-space (optimality of theta_prev at lambda0) cut with a ball
(optimality of theta(lambda) tested against the feasible theta_prev). For
each singular direction pair (u_j, v_k) of the previous solution, the
coefficient of the next solution is bounded by

    W[j, k] = max(P1, P2),  P1 =  <B_ls, u_j v_k^T> + f_opt(gamma),
                            P2 = -<B_ls, u_j v_k^T> + f_opt(-gamma),

with gamma = n lambda (X X^T)^{-1} X vec(u_j v_k^T) and f_opt an upper
bound on the maximum of <gamma, .> over Omega (exact away from
degenerate plane-ball geometry). Rows and columns whose W entries all
vanish are dropped from the problem. That leaves the solution unchanged
only when W bounds it, which needs vec(B) in the row space of the design
(true for every B when n = pq); for n < pq converged paths exceed W (see
the path oracle test in tests/test_screen.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .admm import GeneralizedInstance
from .model import min_norm_least_squares

# screening threshold: entries of W below eps * (1 + max |W|) count as zero
DEFAULT_EPSILON_REL = 1e-9

# relative cutoff below which the two-case split is ill conditioned and
# the sphere bound is used instead
DEGENERATE_RTOL = 1e-12


@dataclass(frozen=True)
class ScreenContext:
    """Everything the rule needs for one lambda0 -> lam step."""

    lambda0: float
    lam: float
    theta_prev: np.ndarray   # dual estimate at lambda0
    problem: object
    gram: object             # GramFactor of the problem
    U: np.ndarray            # p x p left singular basis of B(lambda0)
    V: np.ndarray            # q x q right singular basis of B(lambda0)
    weights: object
    b_ls: np.ndarray | None = None   # the minimum-norm pilot; None computes it

    def pilot(self):
        """The minimum-norm least-squares B_ls, as given or computed."""
        if self.b_ls is not None:
            return self.b_ls
        return min_norm_least_squares(self.problem, self.gram)

    def __post_init__(self):
        if not 0.0 < self.lambda0 < self.lam:
            raise ValueError(
                f"need 0 < lambda0 < lam, got lambda0={self.lambda0}, lam={self.lam}"
            )
        p, q = self.problem.p, self.problem.q
        for name, mat, dim in (("U", self.U, p), ("V", self.V, q)):
            if mat.shape != (dim, dim):
                raise ValueError(f"{name} must be {dim} x {dim}, got {mat.shape}")
            if np.linalg.norm(mat.T @ mat - np.eye(dim)) > 1e-8:
                raise ValueError(f"{name} is not orthogonal")


@dataclass(frozen=True)
class ScreenScalars:
    """Geometry of Omega: half-space normal alpha with offset b, ball (c, eta^2)."""

    alpha: np.ndarray
    b: float
    c: np.ndarray
    eta_sq: float


def compute_scalars(context):
    theta0 = np.asarray(context.theta_prev, dtype=float)
    y = context.problem.y
    n = context.problem.n
    alpha = theta0 + y / (n * context.lambda0)
    shifted = theta0 + y / (n * context.lam)
    return ScreenScalars(
        alpha=alpha,
        b=float(theta0 @ alpha),
        c=0.5 * (theta0 - y / (n * context.lam)),
        eta_sq=0.25 * float(shifted @ shifted),
    )


def f_opt(gamma, scalars):
    """Maximum of <gamma, theta> over Omega, by the two-case closed form.

    When the half-space multiplier is active the maximizer sits on the
    plane-ball ring; that branch is written as
    <c, gamma> + (sqrt(num * den) + bp * s) / ||alpha||^2 with
    num = ||gamma||^2 ||alpha||^2 - <gamma, alpha>^2 and
    den = ||alpha||^2 eta^2 - bp^2, avoiding the intermediate ratio 2 nu.
    When the geometry degenerates (gamma parallel to alpha, or the plane
    tangent to the ball) the ring case is ill defined and the sphere
    bound <c, gamma> + eta ||gamma|| is returned instead; dropping the
    half-space only enlarges Omega, so the result stays an upper bound.
    """
    return float(_f_opt_batch(np.asarray(gamma, dtype=float)[:, None], scalars)[0])


def _f_opt_batch(gammas, scalars):
    """f_opt for each column of gammas, shape (n, m) -> (m,)."""
    alpha, c = scalars.alpha, scalars.c
    eta_sq = max(scalars.eta_sq, 0.0)
    eta = np.sqrt(eta_sq)
    a2 = float(alpha @ alpha)
    bp = scalars.b - float(c @ alpha)

    gsq = np.einsum("ij,ij->j", gammas, gammas)
    s = gammas.T @ alpha
    cg = gammas.T @ c
    sphere = cg + eta * np.sqrt(gsq)

    if a2 <= np.finfo(float).tiny:
        # alpha = 0 makes the half-space vacuous; Omega is the ball
        return sphere

    den = a2 * eta_sq - bp * bp
    if den <= DEGENERATE_RTOL * a2 * eta_sq:
        return sphere

    num = np.maximum(gsq * a2 - s * s, 0.0)
    ring = cg + (np.sqrt(num * den) + bp * s) / a2
    use_ring = (s * np.sqrt(den) < bp * np.sqrt(num)) & (
        num > DEGENERATE_RTOL * gsq * a2
    )
    return np.where(use_ring, ring, sphere)


def gamma_for(context, scalars, j, k):
    """gamma for one (u_j, v_k) pair: n lam (X X^T)^{-1} X vec(u_j v_k^T)."""
    u = context.U[:, j]
    v = context.V[:, k]
    z = (context.problem.X @ v) @ u
    return context.problem.n * context.lam * context.gram.solve(z)


def p_values(context, scalars, j, k):
    """(P1, P2) for one coefficient; W[j, k] = max(P1, P2)."""
    base = float(context.U[:, j] @ context.pilot() @ context.V[:, k])
    gamma = gamma_for(context, scalars, j, k)
    return base + f_opt(gamma, scalars), -base + f_opt(-gamma, scalars)


@dataclass(frozen=True)
class ScreenOutcome:
    W: np.ndarray                # p x q matrix of coefficient bounds
    screened_rows: np.ndarray    # indices j with ||W[j, :]||_inf below eps
    screened_cols: np.ndarray
    kept_rows: np.ndarray
    kept_cols: np.ndarray
    epsilon: float
    context: ScreenContext = field(repr=False)

    @cached_property
    def reduced(self):
        """The GeneralizedInstance on the kept directions, built on first access."""
        context = self.context
        problem = context.problem
        u_kept = context.U[:, self.kept_rows]
        v_kept = context.V[:, self.kept_cols]
        xt = np.matmul(np.matmul(u_kept.T, problem.X), v_kept)
        d1, d2 = self.kept_rows.size, self.kept_cols.size
        return GeneralizedInstance(
            Xt=xt,
            stacked=xt.transpose(0, 2, 1).reshape(problem.n, d1 * d2),
            y=problem.y,
            M1=context.weights.W1 @ u_kept,
            M2=v_kept.T @ context.weights.W2,
            lam=context.lam,
            left=u_kept,
            right=v_kept,
        )


def screen(context, epsilon=None):
    """Evaluate the bound matrix W and find the rows and columns it drops.

    All pq bounds are computed in one batch. The Gram factor holds the
    solved designs A_i = ((X X^T)^{-1} X)_i once per problem, and rotating
    them, U^T A_i V, gives every (X X^T)^{-1} X vec(u_j v_k^T) at once, so
    a level costs one rotation and no Gram solve. The reduced instance is
    built only when it is read.
    """
    problem = context.problem
    n, p, q = problem.n, problem.p, problem.q
    scalars = compute_scalars(context)

    a_rot = np.matmul(np.matmul(context.U.T, context.gram.solved_designs), context.V)
    gammas = n * context.lam * a_rot.transpose(0, 2, 1).reshape(n, p * q)

    base = (context.U.T @ context.pilot() @ context.V).reshape(-1, order="F")

    p1 = base + _f_opt_batch(gammas, scalars)
    p2 = -base + _f_opt_batch(-gammas, scalars)
    w = np.maximum(p1, p2).reshape((p, q), order="F")

    if epsilon is None:
        epsilon = DEFAULT_EPSILON_REL * (1.0 + float(np.max(np.abs(w))))
    row_dead = np.max(np.abs(w), axis=1) <= epsilon
    col_dead = np.max(np.abs(w), axis=0) <= epsilon
    return ScreenOutcome(
        W=w,
        screened_rows=np.flatnonzero(row_dead),
        screened_cols=np.flatnonzero(col_dead),
        kept_rows=np.flatnonzero(~row_dead),
        kept_cols=np.flatnonzero(~col_dead),
        epsilon=float(epsilon),
        context=context,
    )
