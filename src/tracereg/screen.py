"""Safe subspace screening for the solution path.

Given the dual solution theta_prev at another lambda0, the dual solution
at lambda is confined to the region

    Omega = {theta : <theta_prev + y/(n lambda0), theta - theta_prev> >= 0}
            intersect {theta : ||theta - c|| <= eta},

a half-space cut with a ball, c = (theta_prev - y/(n lambda))/2 and
eta = ||theta_prev + y/(n lambda)||/2. The dual solution at any lambda is
the projection of -y/(n lambda) onto the dual feasible set F, which does
not depend on lambda. The half-space is the projection inequality of
theta_prev, the projection of -y/(n lambda0), tested against theta(lambda)
in F; the ball is that of theta(lambda) tested against theta_prev in F.
Neither uses the order of lambda0 and lambda, so the path can step from
lambda_max down: there B = 0 and theta_prev = -y/(n lambda_max) exactly.

For each singular direction pair (u_j, v_k) of the previous solution, the
coefficient of the next solution is bounded by

    W[j, k] = max(P1, P2),  P1 =  <B_ls, u_j v_k^T> + f_opt(gamma),
                            P2 = -<B_ls, u_j v_k^T> + f_opt(-gamma),

with gamma = n lambda (X X^T)^{-1} X vec(u_j v_k^T) and f_opt an upper
bound on the maximum of <gamma, .> over Omega (exact away from
degenerate plane-ball geometry). As B_ls = X^T (X X^T)^{-1} y,

    <B_ls, u_j v_k^T> = y^T (X X^T)^{-1} X vec(u_j v_k^T) = <y, gamma>/(n lambda),

so the rule reads the base term from gamma and never forms B_ls. Rows and
columns whose W entries all vanish are dropped from the problem.

theta_prev itself lies in Omega: on the plane and on the sphere. So
f_opt(+-gamma) >= <+-gamma, theta_prev>, and

    W[j, k] >= |<gamma, theta_prev + y/(n lambda)>| = |u_j^T M v_k| = L[j, k],
    M = unvec(X^T (X X^T)^{-1} (y + n lambda theta_prev)),

one Gram solve with one right-hand side for all pq entries (lower_bound).
A screen reads its default threshold from L and builds W only when L
does not already keep every row and column (see screen). W bounds the
next solution only when its coefficient equals
<gamma, theta + y/(n lambda)>, which holds only when vec(B) lies in the row
space of the design (for every B when n = pq); for n < pq converged paths
exceed W in either order (see the path oracle tests in tests/test_screen.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import unvec

# default screening threshold, relative: entries of W at most
# DEFAULT_EPSILON_REL * (1 + max L) count as zero (see screen)
DEFAULT_EPSILON_REL = 1e-9

# relative cutoff below which the two-case split is ill conditioned and
# the sphere bound is used instead
DEGENERATE_RTOL = 1e-12


@dataclass(frozen=True)
class ScreenContext:
    """Everything the rule needs for one lambda0 -> lam step.

    lambda0 may lie above or below lam: the region holds in either order
    (see the module docstring). lambda0 == lam is rejected: there the
    region collapses to the point theta_prev and there is no step to screen.
    """

    lambda0: float
    lam: float
    theta_prev: np.ndarray   # dual solution (estimate) at lambda0
    gram: object             # GramFactor; gram.problem holds X and y
    U: np.ndarray            # p x p left singular basis of B(lambda0)
    V: np.ndarray            # q x q right singular basis of B(lambda0)

    def __post_init__(self):
        self._validate(orthogonal=False)

    @classmethod
    def from_orthogonal_bases(cls, lambda0, lam, theta_prev, gram, U, V):
        """A context on bases orthogonal by construction, such as a full SVD's.

        The step and the shapes are validated as the constructor validates
        them; U^T U = I and V^T V = I, two dense products, are not.
        """
        context = object.__new__(cls)
        context.__dict__.update(lambda0=lambda0, lam=lam, theta_prev=theta_prev,
                                gram=gram, U=U, V=V)
        context._validate(orthogonal=True)
        return context

    def _validate(self, orthogonal):
        """ValueError on a step lambda0 -> lam with no width or bases of the wrong shape.

        Unless orthogonal is true, bases that are not orthogonal raise too.
        """
        if not (self.lambda0 > 0.0 and self.lam > 0.0 and self.lambda0 != self.lam):
            raise ValueError(
                "need positive lambda0 != lam, "
                f"got lambda0={self.lambda0}, lam={self.lam}"
            )
        p, q = self.gram.problem.p, self.gram.problem.q
        for name, mat, dim in (("U", self.U, p), ("V", self.V, q)):
            if mat.shape != (dim, dim):
                raise ValueError(f"{name} must be {dim} x {dim}, got {mat.shape}")
            if not orthogonal and np.linalg.norm(mat.T @ mat - np.eye(dim)) > 1e-8:
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
    y, n = context.gram.problem.y, context.gram.problem.n
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


def gamma_for(context, j, k):
    """gamma for one (u_j, v_k) pair: n lam (X X^T)^{-1} X vec(u_j v_k^T)."""
    problem = context.gram.problem
    z = (problem.X @ context.V[:, k]) @ context.U[:, j]
    return problem.n * context.lam * context.gram.solve(z)


def p_values(context, scalars, j, k):
    """(P1, P2) for one coefficient, base term <y, gamma>/(n lam); W = max(P1, P2)."""
    problem = context.gram.problem
    gamma = gamma_for(context, j, k)
    base = float(problem.y @ gamma) / (problem.n * context.lam)
    return base + f_opt(gamma, scalars), -base + f_opt(-gamma, scalars)


def _bounds(context, scalars, gammas):
    """W = max(P1, P2) for each column gamma of gammas, shape (n, m) -> (m,)."""
    base = context.gram.problem.y @ gammas / (context.gram.problem.n * context.lam)
    return np.maximum(base + _f_opt_batch(gammas, scalars),
                      -base + _f_opt_batch(-gammas, scalars))


def bound_matrix(context, scalars=None):
    """All p q entries of W, from the factor's solved designs.

    Rotating the solved designs, U^T A_i V, gives every
    (X X^T)^{-1} X vec(u_j v_k^T) at once, so W costs one rotation of A and,
    on a factor that has not solved its designs yet, that (n, pq) solve.
    """
    problem = context.gram.problem
    n, p, q = problem.n, problem.p, problem.q
    if scalars is None:
        scalars = compute_scalars(context)
    a_rot = np.matmul(np.matmul(context.U.T, context.gram.solved_designs), context.V)
    # column j + k p is (X X^T)^{-1} X vec(u_j v_k^T), the F order of W
    gammas = n * context.lam * a_rot.transpose(0, 2, 1).reshape(n, p * q)
    return _bounds(context, scalars, gammas).reshape((p, q), order="F")


def lower_bound(context):
    """L = |U^T M V|, entrywise at most W, from one Gram solve (module docstring).

    L can only show that a direction is kept, never that it is dropped.
    """
    problem = context.gram.problem
    shifted = problem.y + problem.n * context.lam * np.asarray(context.theta_prev, dtype=float)
    m = unvec(context.gram.row_space_map(shifted), problem.p, problem.q)
    return np.abs(context.U.T @ m @ context.V)


@dataclass(frozen=True)
class ScreenOutcome:
    """The rows and columns of the bases a screen drops and keeps."""

    screened_rows: np.ndarray    # indices j with ||W[j, :]||_inf at most epsilon
    screened_cols: np.ndarray
    kept_rows: np.ndarray
    kept_cols: np.ndarray
    bounds_evaluated: int        # entries of W the screen computed: 0 (L decided) or p q
    epsilon: float               # the threshold the screen decided on


def _check_epsilon(epsilon):
    """ValueError unless epsilon is None or a nonnegative threshold; inf drops everything."""
    if epsilon is not None and not epsilon >= 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")


def screen(context, epsilon=None):
    """Find the rows and columns of the bases that W drops.

    A row is dropped when every bound W[j, k] in it is at most epsilon, so
    one bound above it in each row and each column keeps everything. The
    screen reads that from the lower bound L first (lower_bound: one Gram
    solve with one right-hand side). Without epsilon the threshold is
    DEFAULT_EPSILON_REL (1 + max L); as L <= W, up to rounding it is never
    above DEFAULT_EPSILON_REL (1 + max |W|). When every row and every
    column of L has an entry above the threshold, the level keeps
    everything and W is not built. Otherwise all pq bounds of W decide at
    the same threshold, as bound_matrix evaluates them. The path solves the
    level on the kept columns of U and V (FactorCache.restrict).
    """
    _check_epsilon(epsilon)
    p, q = context.gram.problem.p, context.gram.problem.q
    low = lower_bound(context)
    if epsilon is None:
        epsilon = DEFAULT_EPSILON_REL * (1.0 + float(np.max(low)))
    if np.all(np.max(low, axis=1) > epsilon) and np.all(np.max(low, axis=0) > epsilon):
        return ScreenOutcome(
            screened_rows=np.arange(0), screened_cols=np.arange(0),
            kept_rows=np.arange(p), kept_cols=np.arange(q),
            bounds_evaluated=0, epsilon=epsilon,
        )

    w = np.abs(bound_matrix(context))
    row_dead = np.max(w, axis=1) <= epsilon
    col_dead = np.max(w, axis=0) <= epsilon
    return ScreenOutcome(
        screened_rows=np.flatnonzero(row_dead),
        screened_cols=np.flatnonzero(col_dead),
        kept_rows=np.flatnonzero(~row_dead),
        kept_cols=np.flatnonzero(~col_dead),
        bounds_evaluated=p * q, epsilon=epsilon,
    )
