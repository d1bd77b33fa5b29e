"""Problem containers, least-squares estimate, adaptive weights, lambda_max.

The model is y_i = <X_i, B> + eps_i with matrix covariates X_i in R^{p x q}.
Throughout, vec() stacks columns, so entry (a, b) of a p x q matrix lands at
position b * p + a of the vectorized form, and (W2 kron W1) vec(B) =
vec(W1 B W2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpocon

# dpocon's reciprocal condition estimate of X X^T at or below which GramFactor
# refuses the design. On 4 x 5, n = 10 designs it read 3e-9 to 6e-9 at a
# singular value ratio of 1e-4 (Gram-route pilot within 4e-9 relative) and
# 3e-11 to 6e-11 at 1e-5 (off by 5e-7; lstsq within 1e-11); the benchmark's
# Gaussian and cross problems read 2e-8 and up.
GRAM_RCOND = 1e-10

# relative floor applied to padded singular values before the -gamma power
SV_FLOOR_RTOL = 1e-8


def vec(m):
    """Column-stacking vectorization of a matrix."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v, p, q):
    """Inverse of vec for a p x q matrix."""
    return np.asarray(v).reshape((p, q), order="F")


@dataclass(frozen=True)
class TraceRegressionProblem:
    """Immutable bundle of design matrices, responses and the stacked design.

    stacked has shape (n, p*q) with row i equal to vec(X_i), so the linear
    map B -> (<X_i, B>)_i is stacked @ vec(B).
    """

    n: int
    p: int
    q: int
    X: np.ndarray          # (n, p, q)
    y: np.ndarray          # (n,)
    stacked: np.ndarray    # (n, p*q)


def build_problem(X, y):
    """Validate inputs and assemble a TraceRegressionProblem.

    X may be a list of p x q arrays or an (n, p, q) array. No decomposition
    runs here: whether the design has full row rank, which screening needs
    and the solver does not, is decided by GramFactor.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.ndim != 3:
        raise ValueError(f"X must be n stacked p x q matrices, got shape {X.shape}")
    n, p, q = X.shape
    if min(n, p, q) < 1:
        raise ValueError(f"need n, p and q at least 1, got n={n}, p={p}, q={q}")
    if y.shape[0] != n:
        raise ValueError(f"y has {y.shape[0]} entries but X has {n} matrices")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite entries")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite entries")

    # row i of the stacked design is vec(X_i); transpose gives Fortran order
    stacked = X.transpose(0, 2, 1).reshape(n, p * q)
    return TraceRegressionProblem(n=n, p=p, q=q, X=X, y=y, stacked=stacked)


def _row_rank_deficient(reason):
    return np.linalg.LinAlgError(
        f"stacked design is not numerically full row rank ({reason}); "
        "a row-rank deficient design has no Gram factor"
    )


class GramFactor:
    """Cholesky factorization of the n x n Gram matrix stacked @ stacked.T.

    Shared by the least-squares estimate, the screening rule and the
    solution path so the factorization happens once per problem. This is
    the one test of full row rank: a design with n > pq is refused from
    its shape, before any Gram is formed, and one whose Gram has no
    Cholesky factor, or a reciprocal condition estimate at or below
    GRAM_RCOND, is refused after. A refusal raises np.linalg.LinAlgError,
    a ValueError.
    """

    def __init__(self, problem):
        self.problem = problem
        n, pq = problem.stacked.shape
        if n > pq:
            raise _row_rank_deficient(f"n = {n} samples exceed p * q = {pq} entries")
        gram = problem.stacked @ problem.stacked.T
        try:
            self._cho = scipy.linalg.cho_factor(gram, lower=True)
        except scipy.linalg.LinAlgError:
            raise _row_rank_deficient("X X^T has no Cholesky factor") from None
        rcond, _ = dpocon(self._cho[0], np.linalg.norm(gram, 1), uplo="L")
        if not rcond > GRAM_RCOND:
            raise _row_rank_deficient(
                f"rcond(X X^T) {rcond:.1e} is at most GRAM_RCOND = {GRAM_RCOND:.0e}")

    def solve(self, z):
        """(stacked stacked^T)^{-1} z for a vector or a matrix of columns."""
        return scipy.linalg.cho_solve(self._cho, z)

    @cached_property
    def solved_designs(self):
        """A_i of A = (stacked stacked^T)^{-1} stacked, as (n, p, q); solved on first use.

        The solve mixes rows and a rotation U^T A_i V mixes entries within
        a row, so the two commute: the screening rule rotates A at every
        level instead of solving the rotated designs again.
        """
        n, p, q = self.problem.n, self.problem.p, self.problem.q
        return self.solve(self.problem.stacked).reshape(n, q, p).transpose(0, 2, 1)

    def row_space_map(self, z):
        """stacked^T (stacked stacked^T)^{-1} z, the min-norm preimage."""
        return self.problem.stacked.T @ self.solve(z)


def min_norm_least_squares(problem, gram=None):
    """Minimum-norm least-squares estimate of B.

    Given a GramFactor, it is the interpolant vec(B) = X^T (X X^T)^{-1} y
    through that factor. Without one it is np.linalg.lstsq's least-squares
    fit of minimum norm, which stays accurate where X X^T is singular or
    ill-conditioned (n > pq, or nearly dependent rows).
    """
    if gram is None:
        fit = np.linalg.lstsq(problem.stacked, problem.y, rcond=None)[0]
        return unvec(fit, problem.p, problem.q)
    return unvec(gram.row_space_map(problem.y), problem.p, problem.q)


@dataclass(frozen=True)
class WeightPair:
    """Adaptive weight matrices built from the least-squares SVD.

    W1 = U_ls diag(s_left)^{-gamma} U_ls^T and likewise for W2 with the
    right singular basis; inverses use the +gamma power of the same
    spectrum, so W1 @ W1inv = I exactly up to rounding.
    """

    W1: np.ndarray
    W2: np.ndarray
    W1inv: np.ndarray
    W2inv: np.ndarray
    gamma: float
    s_raw: np.ndarray      # singular values of B_ls, length min(p, q)
    s_left: np.ndarray     # padded/floored spectrum used for W1, length p
    s_right: np.ndarray    # padded/floored spectrum used for W2, length q
    floored: bool          # True when the small-value floor was applied


def _sym(m):
    return 0.5 * (m + m.T)


def compute_weights(b_ls, gamma, n):
    """Build the weight pair from the least-squares estimate.

    Singular values are padded with n^{-1/2} up to length p (left) and q
    (right); values below n^{-1/2} * SV_FLOOR_RTOL are floored there before
    the power so the inverses stay finite.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    b_ls = np.asarray(b_ls, dtype=float)
    p, q = b_ls.shape
    U, s, Vt = np.linalg.svd(b_ls, full_matrices=True)
    pad = n ** -0.5
    floor = pad * SV_FLOOR_RTOL

    s_left = np.concatenate([s, np.full(p - s.size, pad)])
    s_right = np.concatenate([s, np.full(q - s.size, pad)])
    floored = bool(np.any(s_left < floor) or np.any(s_right < floor))
    s_left = np.maximum(s_left, floor)
    s_right = np.maximum(s_right, floor)

    V = Vt.T
    W1 = _sym((U * s_left ** -gamma) @ U.T)
    W1inv = _sym((U * s_left ** gamma) @ U.T)
    W2 = _sym((V * s_right ** -gamma) @ V.T)
    W2inv = _sym((V * s_right ** gamma) @ V.T)
    return WeightPair(
        W1=W1, W2=W2, W1inv=W1inv, W2inv=W2inv, gamma=gamma,
        s_raw=s, s_left=s_left, s_right=s_right, floored=floored,
    )


def lambda_max(problem, weights):
    """Smallest lambda at which B = 0 solves the regularized problem.

    Dual feasibility of theta = -y/(n lambda) at B = 0 gives
    lambda_max = ||W1^{-1} (sum_i y_i X_i) W2^{-1}||_2 / n.
    """
    s = unvec(problem.stacked.T @ problem.y, problem.p, problem.q)
    return float(np.linalg.norm(weights.W1inv @ s @ weights.W2inv, 2) / problem.n)
