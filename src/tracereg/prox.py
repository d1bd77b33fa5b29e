"""Singular value calculus: SVD triples, nuclear prox, dual gauge.

The weighted nuclear norm ||W1 B W2||_* has proximal and subdifferential
structure inherited from the plain nuclear norm through the maps
M -> W1 M W2; the helpers here keep that calculus in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .model import unvec

# LAPACK routines called directly: numpy's linalg wrappers cost about as much
# as the decomposition itself at the 15 x 45 and 32 x 32 sizes of a solve.
_syevd = lapack.dsyevd
_syevx = lapack.dsyevx
_gesdd = lapack.dgesdd

EPS = np.finfo(float).eps

# prox_nuclear reads sigma_k = sqrt(w_k) off the eigenvalues w_k of the
# d_min x d_min Gram of a p x q matrix m. Forming the Gram (inner products of
# length d = max(p, q)) and its symmetric eigensolver both err by about
# d * eps * sigma_max^2 in absolute terms, so the Gram resolves sigma only
# down to about sqrt(d * eps) * sigma_max; smaller singular values are noise.
# Let t >= K sqrt(d * eps) sigma_max. Then noise-level singular values stay K
# times below the threshold, a sigma that survives it has relative error at
# most d eps sigma_max^2 / (2 t^2) <= 1 / (2 K^2), and, as the output depends
# on a sigma near t only through sigma - t, the output is off by at most about
# d eps sigma_max^2 / t <= sqrt(d * eps) sigma_max / K. K = 8 gives 0.8 % and
# 1.3e-8 sigma_max at d = 45 (measured at the cut on random spectra: at most
# 3e-10 sigma_max for shapes 15 x 45 to 64 x 64). That error cannot make an
# answer wrong, as the solver's certificate is computed from the iterate
# itself, and it is two orders below the default gap tolerance. Below the cut
# the prox takes the thin SVD. On the benchmark paths the smallest t / sigma_max
# is 9.0e-6 (15 x 45, cut 8.0e-7) and 2.5e-3 (32 x 32, cut 6.7e-7).
GRAM_RESOLUTION = 8.0

# prox_nuclear asks LAPACK syevx for the eigenpairs above t^2 alone when the
# rank hint k satisfies PARTIAL_EIGEN_SHARE * (k + 1) <= d_min, and takes all
# of them from syevd otherwise. Bisection plus inverse iteration costs about
# a fixed part plus a part per kept pair, syevd a fixed d_min^3 part. Measured
# with one BLAS thread: at d_min = 15 syevx takes 19/26/34 us for 1/2/4 kept
# pairs against 33 us for syevd; at d_min = 32 it takes 49/63/87/154 us for
# 1/2/4/8 pairs against 128 us.
PARTIAL_EIGEN_SHARE = 5


@dataclass(frozen=True)
class SvdTriple:
    """Thin SVD restricted to strictly positive singular values.

    U has orthonormal columns (p x r), sigma is nonincreasing and positive,
    V has orthonormal columns (q x r). U_full / V_full are the complete
    orthogonal bases, populated only when the decomposition was requested
    with full=True.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    U_full: np.ndarray | None = None
    V_full: np.ndarray | None = None

    @property
    def rank(self):
        return self.sigma.size


def svd(m, full=False, rtol=None):
    """SVD of m as an SvdTriple, from LAPACK gesdd; rank cut at rtol * sigma_max.

    rtol defaults to max(p, q) * machine eps, the usual numerical-rank
    tolerance. A zero matrix yields rank 0 with empty thin factors.
    """
    m = np.asarray(m, dtype=float)
    p, q = m.shape
    if m.size == 0:
        # LAPACK gesdd rejects an empty matrix
        U, s, Vt = np.linalg.svd(m, full_matrices=full)
    else:
        U, s, Vt, info = _gesdd(m, compute_uv=1, full_matrices=int(full))
        _check_info(info, "gesdd")
    if rtol is None:
        rtol = max(p, q) * np.finfo(float).eps
    cut = rtol * s[0] if s.size and s[0] > 0 else 0.0
    r = int(np.sum(s > cut))
    return SvdTriple(
        U=U[:, :r].copy(), sigma=s[:r].copy(), V=Vt[:r].T.copy(),
        U_full=U if full else None,
        V_full=Vt.T if full else None,
    )


def singular_values(m):
    """The singular values alone, nonincreasing, from LAPACK gesdd without vectors."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return np.zeros(0)
    _, s, _, info = _gesdd(m, compute_uv=0)
    _check_info(info, "gesdd")
    return s


def nuclear_norm(m):
    """Sum of the singular values."""
    return float(np.sum(singular_values(m)))


def spectral_norm(m):
    """Largest singular value: the root of the top eigenvalue of the smaller Gram.

    LAPACK syevx computes that eigenvalue alone (by bisection, without
    vectors): with the Gram, 13.4 / 37 / 280 us at 15 x 15 / 32 x 32 /
    100 x 100 against 15.2 / 47 / 464 us for all of them from syevd (one
    BLAS thread; syevr reads within 4 % of syevx). Over 220 random matrices
    up to 100 x 1 024 it is within 1.1e-15 of the SVD's, relative.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    gram = _small_gram(m)
    d = gram.shape[0]
    w, _, _, _, info = _syevx(gram, compute_v=0, range="I", il=d, iu=d, overwrite_a=1)
    _check_info(info, "syevx")
    return float(np.sqrt(max(w[0], 0.0)))


def prox_nuclear(m, t, rank_hint=None, factors=False):
    """prox of t * ||.||_* at m: soft-threshold the singular values.

    Returns U diag((sigma - t)_+) V^T, computed from the eigendecomposition
    of the smaller Gram matrix: U_k diag(1 - t/sigma_k) U_k^T m over the
    sigma_k = sqrt(w_k) > t when m is wide (m m^T = U diag(w) U^T), and its
    mirror m V_k diag(1 - t/sigma_k) V_k^T when m is tall. Below the Gram's
    resolution (see GRAM_RESOLUTION) it falls back to the thin SVD of m.
    t = 0 returns m unchanged.

    rank_hint, the kept rank of a nearby input such as the previous iterate,
    only picks the eigensolver (see PARTIAL_EIGEN_SHARE); both return every
    eigenpair above t^2, so the output does not depend on the hint. With
    factors=True the result is (out, s, u, v) with out = u diag(s) v^T: s
    holds the nonzero singular values sigma_k - t of out, ascending, u and v
    the kept eigenvectors on one side and m^T U_k / sigma_k or
    m V_k / sigma_k on the other, so they are as accurate as the Gram
    resolves them. s, u and v are None when the SVD fallback or t = 0
    answered.
    """
    out, s, u, v = _prox_nuclear(m, t, rank_hint)
    return (out, s, u, v) if factors else out


def _prox_nuclear(m, t, rank_hint):
    if t < 0:
        raise ValueError(f"threshold t must be nonnegative, got {t}")
    m = np.asarray(m, dtype=float)
    if t == 0:
        return m.copy(), None, None, None
    if m.size == 0:
        p, q = m.shape
        return np.zeros_like(m), np.zeros(0), np.zeros((p, 0)), np.zeros((q, 0))
    p, q = m.shape
    gram = _small_gram(m)
    cut = t * t
    if rank_hint is not None and PARTIAL_EIGEN_SHARE * (rank_hint + 1) <= min(p, q):
        w, vecs = _eigenpairs_above(gram, cut)
        top = w[-1] if w.size else 0.0
    else:
        w, vecs, info = _syevd(gram, compute_v=1, overwrite_a=1)
        _check_info(info, "syevd")
        top = w[-1]
        # w ascends, so the kept eigenpairs are the trailing ones
        first = int(np.searchsorted(w, cut, side="right"))
        w, vecs = w[first:], vecs[:, first:]
    if cut < GRAM_RESOLUTION ** 2 * max(p, q) * EPS * top:
        return _prox_nuclear_svd(m, t), None, None, None
    u, sigma, v = _gram_pairs(m, w, vecs)
    s = sigma - t
    return (u * s) @ v.T, s, u, v


def _prox_nuclear_svd(m, t):
    """prox_nuclear from the thin SVD of m, accurate at any t."""
    U, s, Vt = np.linalg.svd(m, full_matrices=False)
    s = np.maximum(s - t, 0.0)
    keep = s > 0
    return (U[:, keep] * s[keep]) @ Vt[keep] if np.any(keep) else np.zeros_like(m)


def singular_pairs_above(m, s_min):
    """(U_k, sigma, V_k): the singular triples of m with sigma > s_min.

    sigma ascends. One side comes from the eigenpairs of the smaller Gram
    above s_min^2 (LAPACK syevx), the other as m^T u / sigma or m v / sigma,
    so the pairs are as accurate as the Gram resolves them (see
    GRAM_RESOLUTION).
    """
    m = np.asarray(m, dtype=float)
    return _gram_pairs(m, *_eigenpairs_above(_small_gram(m), s_min * s_min))


def _gram_pairs(m, w, vecs):
    """(U_k, sigma, V_k) of m from eigenpairs (w, vecs) of its smaller Gram, w > 0.

    The eigenvectors are one side, U_k when m is wide (m m^T = U diag(w)
    U^T) and V_k when it is tall; the other is m^T U_k / sigma or
    m V_k / sigma, with sigma = sqrt(w).
    """
    sigma = np.sqrt(w)
    if m.shape[0] <= m.shape[1]:
        return vecs, sigma, (m.T @ vecs) / sigma
    return (m @ vecs) / sigma, sigma, vecs


def _eigenpairs_above(gram, cut):
    """The eigenpairs of a Gram matrix with eigenvalue above cut, ascending.

    LAPACK syevx by bisection and inverse iteration, on eigenvalues in
    (cut, vu]; twice the trace bounds them all. gram is overwritten.
    """
    vu = 2.0 * max(float(gram.trace()), cut)
    w, vecs, kept, _, info = _syevx(gram, range="V", vl=cut, vu=vu, overwrite_a=1)
    _check_info(info, "syevx")
    return w[:kept], vecs[:, :kept]


def _small_gram(m):
    """m m^T when m is wide, m^T m when it is tall, in Fortran order.

    The product is symmetric, so its transpose is the same matrix laid out
    the way LAPACK reads it, and the wrappers need not copy it.
    """
    g = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    return g.T


def _check_info(info, routine):
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info={info})")


def dual_feasibility_gauge(theta, problem, weights):
    """||W1^{-1} (sum_i theta_i X_i) W2^{-1}||_2, the dual constraint gauge.

    Values <= 1 are dual feasible; at an exact solution with a nonzero
    penalty term the gauge equals 1.
    """
    s = unvec(problem.stacked.T @ np.asarray(theta, dtype=float), problem.p, problem.q)
    return spectral_norm(weights.W1inv @ s @ weights.W2inv)


def subdifferential_residual(b, g, weights, rtol=None):
    """Distance of g from the subdifferential of ||W1 . W2||_* at b.

    The subdifferential is {W1 (U_r V_r^T + N) W2} over N with
    ||N||_2 <= 1, U_r^T N = 0, N V_r = 0, where U_r, V_r come from the thin
    SVD of W1 b W2. Solving g = W1 (U_r V_r^T + N) W2 for N and measuring
    the violated constraints gives

        max(||U_r^T N||_F, ||N V_r||_F, (||N||_2 - 1)_+),

    which is zero exactly when g is a valid subgradient.
    """
    a = weights.W1 @ b @ weights.W2
    t = svd(a, rtol=rtol)
    n_mat = weights.W1inv @ g @ weights.W2inv
    if t.rank:
        n_mat = n_mat - t.U @ t.V.T
        res_u = np.linalg.norm(t.U.T @ n_mat)
        res_v = np.linalg.norm(n_mat @ t.V)
    else:
        res_u = res_v = 0.0
    res_norm = max(0.0, spectral_norm(n_mat) - 1.0)
    return float(max(res_u, res_v, res_norm))
