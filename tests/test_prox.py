"""Singular value calculus: SVD triples, nuclear prox, dual gauge."""

import numpy as np
import pytest

import tracereg.admm
from tracereg import (
    build_problem,
    full_path,
    compute_weights,
    dual_feasibility_gauge,
    lambda_max,
    min_norm_least_squares,
    nuclear_norm,
    prox_nuclear,
    spectral_norm,
    subdifferential_residual,
    svd,
    unvec,
)
from tracereg import prox as prox_module
from tracereg.admm import CHECK_EVERY
from tracereg.harness import GaussianSpec, gen_gaussian, prepare


def test_svd_zero_matrix():
    t = svd(np.zeros((3, 2)))
    assert t.rank == 0
    assert t.U.shape == (3, 0) and t.V.shape == (2, 0) and t.sigma.shape == (0,)


def test_svd_diagonal():
    t = svd(np.diag([3.0, 1.0]))
    assert np.allclose(t.sigma, [3.0, 1.0])
    assert np.allclose(np.abs(t.U), np.eye(2), atol=1e-12)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p, q = rng.integers(2, 9, size=2)
        m = rng.standard_normal((p, q))
        t = svd(m, full=True)
        rec = (t.U * t.sigma) @ t.V.T
        assert np.linalg.norm(rec - m) <= 1e-10 * np.linalg.norm(m)
        assert np.linalg.norm(t.U.T @ t.U - np.eye(t.rank)) <= 1e-10
        assert np.linalg.norm(t.V.T @ t.V - np.eye(t.rank)) <= 1e-10
        assert np.all(np.diff(t.sigma) <= 0) and np.all(t.sigma > 0)
        assert np.linalg.norm(t.U_full.T @ t.U_full - np.eye(p)) <= 1e-10
        assert np.linalg.norm(t.V_full.T @ t.V_full - np.eye(q)) <= 1e-10


def test_svd_rank_cut():
    m = np.diag([1.0, 1e-20])
    assert svd(m).rank == 1
    assert svd(m, rtol=1e-25).rank == 2


def test_norms_match_elementwise_definitions():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.standard_normal((5, 4))
        s = np.linalg.svd(m, compute_uv=False)
        assert abs(nuclear_norm(m) - s.sum()) <= 1e-10 * s.sum()
        assert abs(spectral_norm(m) - s[0]) <= 1e-10 * s[0]
        fro = np.sqrt((m * m).sum())
        assert abs(np.sqrt((s * s).sum()) - fro) <= 1e-10 * fro


def test_prox_nuclear_trivial_and_frozen():
    assert np.array_equal(prox_nuclear(np.zeros((2, 3)), 1.0), np.zeros((2, 3)))
    out = prox_nuclear(np.diag([2.0, 0.5]), 1.0)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
    m = np.random.default_rng(2).standard_normal((3, 3))
    assert np.array_equal(prox_nuclear(m, 0.0), m)


def test_prox_nuclear_rejects_negative_threshold():
    with pytest.raises(ValueError, match="nonnegative"):
        prox_nuclear(np.eye(2), -0.1)


def test_prox_nuclear_shrinks_rank():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.standard_normal((5, 4))
        t = float(rng.uniform(0.0, 2.0))
        out = prox_nuclear(m, t)
        assert np.linalg.matrix_rank(out) <= np.linalg.matrix_rank(m)


def test_prox_nuclear_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((4, 6))
        t = float(rng.uniform(0.0, 3.0))
        d_out = np.linalg.norm(prox_nuclear(a, t) - prox_nuclear(b, t))
        assert d_out <= np.linalg.norm(a - b) + 1e-12


def test_prox_nuclear_optimality():
    # (M - P)/t must be a nuclear norm subgradient at P
    rng = np.random.default_rng(5)
    identity = compute_weights(np.eye(5), 1.0, 4)
    for _ in range(50):
        m = rng.standard_normal((5, 5))
        t = float(rng.uniform(0.05, 2.0))
        p = prox_nuclear(m, t)
        assert subdifferential_residual(p, (m - p) / t, identity) <= 1e-7


def test_prox_nuclear_against_descent_oracle():
    # prox(M, t) minimizes t||N||_* + 0.5||N - M||_F^2; a plain subgradient
    # descent from zero must not find anything better
    rng = np.random.default_rng(6)
    for _ in range(3):
        m = rng.standard_normal((4, 3))
        t = 0.7

        def objective(n_mat):
            s = np.linalg.svd(n_mat, compute_uv=False)
            return t * s.sum() + 0.5 * np.linalg.norm(n_mat - m) ** 2

        n_mat = np.zeros_like(m)
        best = objective(n_mat)
        for k in range(1, 3001):
            U, s, Vt = np.linalg.svd(n_mat, full_matrices=False)
            keep = s > 1e-12
            g = t * (U[:, keep] @ Vt[keep]) + (n_mat - m)
            n_mat = n_mat - 0.5 / np.sqrt(k) * g
            best = min(best, objective(n_mat))
        prox_obj = objective(prox_nuclear(m, t))
        assert prox_obj <= best + 1e-8


def test_dual_feasibility_gauge():
    problem, _ = gen_gaussian(GaussianSpec(p=5, q=6, n=8, seed=7))
    w = compute_weights(min_norm_least_squares(problem), 1.0, 8)
    assert dual_feasibility_gauge(np.zeros(8), problem, w) == 0.0

    rng = np.random.default_rng(8)
    theta = rng.standard_normal(8)
    g1 = dual_feasibility_gauge(theta, problem, w)
    assert np.isclose(dual_feasibility_gauge(3.0 * theta, problem, w), 3.0 * g1)

    # theta = -y/(n lambda_max) saturates the dual constraint
    lmax = lambda_max(problem, w)
    gauge = dual_feasibility_gauge(-problem.y / (8 * lmax), problem, w)
    assert abs(gauge - 1.0) <= 1e-8


def test_subdifferential_residual_frozen_cases():
    identity = compute_weights(np.eye(2), 1.0, 4)
    assert subdifferential_residual(np.zeros((2, 2)), np.zeros((2, 2)), identity) == 0.0
    assert subdifferential_residual(np.eye(2), np.eye(2), identity) <= 1e-12
    # G = 2I forces N = I, violating U_r^T N = 0 with Frobenius norm sqrt(2)
    res = subdifferential_residual(np.eye(2), 2.0 * np.eye(2), identity)
    assert abs(res - np.sqrt(2.0)) <= 1e-12


def test_fenchel_young_inequality():
    # any dual-feasible theta satisfies <sum theta_i X_i, B> <= ||W1 B W2||_*
    rng = np.random.default_rng(9)
    problem, _ = gen_gaussian(GaussianSpec(p=4, q=5, n=7, seed=9))
    w = compute_weights(min_norm_least_squares(problem), 1.0, 7)
    for _ in range(30):
        theta = rng.standard_normal(7)
        gauge = dual_feasibility_gauge(theta, problem, w)
        theta /= max(gauge, 1.0) * (1.0 + 1e-12)
        s = unvec(problem.stacked.T @ theta, 4, 5)
        b = rng.standard_normal((4, 5))
        lhs = float(np.sum(s * b))
        rhs = nuclear_norm(w.W1 @ b @ w.W2)
        assert lhs <= rhs + 1e-10 * (1.0 + rhs)


# ------------------------------------------- references from np.linalg.svd


def svd_prox(m, t):
    U, s, Vt = np.linalg.svd(m, full_matrices=False)
    return (U * np.maximum(s - t, 0.0)) @ Vt


def svd_nuclear_norm(m):
    return float(np.linalg.svd(m, compute_uv=False).sum()) if m.size else 0.0


def svd_spectral_norm(m):
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def with_singular_values(rng, p, q, sigma):
    """A p x q matrix with the given singular values and random bases."""
    r = len(sigma)
    U, _ = np.linalg.qr(rng.standard_normal((p, r)))
    V, _ = np.linalg.qr(rng.standard_normal((q, r)))
    return (U * np.asarray(sigma, dtype=float)) @ V.T


def reference_cases():
    rng = np.random.default_rng(10)
    cases = [pytest.param(rng.standard_normal((p, q)), id=f"{p}x{q}")
             for p, q in ((3, 8), (15, 45), (8, 3), (45, 15), (6, 6), (32, 32), (1, 7), (7, 1))]
    return cases + [
        pytest.param(with_singular_values(rng, 6, 11, [3.0, 0.4]), id="rank2-wide"),
        pytest.param(with_singular_values(rng, 12, 5, [2.0, 1.0, 0.5]), id="rank3-tall"),
        pytest.param(np.zeros((4, 6)), id="zero"),
    ]


@pytest.mark.parametrize("m", reference_cases())
def test_linear_algebra_matches_svd_reference(m):
    s = np.linalg.svd(m, compute_uv=False)
    scale = max(s[0], 1.0)
    assert abs(nuclear_norm(m) - svd_nuclear_norm(m)) <= 1e-13 * max(s.sum(), 1.0)
    assert abs(spectral_norm(m) - svd_spectral_norm(m)) <= 1e-13 * scale
    for share in (0.0, 0.05, 0.3, 0.7, 1.2):
        t = share * s[0] if s[0] > 0 else share
        out = prox_nuclear(m, t)
        assert out.shape == m.shape
        assert np.linalg.norm(out - svd_prox(m, t), 2) <= 1e-12 * scale


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0)])
def test_linear_algebra_on_empty_inputs(shape):
    m = np.zeros(shape)
    assert nuclear_norm(m) == 0.0
    assert spectral_norm(m) == 0.0
    out = prox_nuclear(m, 0.5)
    assert out.shape == shape


@pytest.mark.parametrize("p,q", [(10, 20), (20, 10)])
def test_prox_nuclear_clustered_singular_values_straddling_t(p, q):
    # clusters a relative 1e-9 to 1e-3 around t: whichever side of t a value
    # lands on, its share of the output is within rounding of the reference
    rng = np.random.default_rng(11)
    t = 0.5
    sigma = [2.0, 2.0 * (1 + 1e-12), t * (1 + 1e-3), t * (1 + 1e-9), t, t * (1 - 1e-9),
             t * (1 - 1e-3), 0.1, 0.1 * (1 + 1e-13)]
    for _ in range(5):
        m = with_singular_values(rng, p, q, sigma)
        assert np.linalg.norm(prox_nuclear(m, t) - svd_prox(m, t), 2) <= 1e-12 * 2.0
        assert abs(nuclear_norm(m) - sum(sigma)) <= 1e-13 * sum(sigma)
        assert abs(spectral_norm(m) - 2.0 * (1 + 1e-12)) <= 1e-13 * 2.0


@pytest.mark.parametrize("p,q", [(15, 45), (45, 15)])
def test_prox_nuclear_falls_back_to_svd_below_gram_resolution(p, q, monkeypatch):
    # t far below sqrt(max(p, q) eps) sigma_max: the Gram cannot tell the
    # singular values near t from noise, so the thin SVD must answer
    calls = []
    fallback = prox_module._prox_nuclear_svd
    monkeypatch.setattr(prox_module, "_prox_nuclear_svd",
                        lambda m, t: calls.append(t) or fallback(m, t))
    rng = np.random.default_rng(12)
    t = 1e-10
    m = with_singular_values(rng, p, q, [1.0, 1e-3, 1e-6, 3e-10, 1.5e-10, 5e-11, 1e-12])
    cut = prox_module.GRAM_RESOLUTION * np.sqrt(max(p, q) * prox_module.EPS)
    assert t < cut
    out = prox_nuclear(m, t)
    assert calls == [t]
    assert np.linalg.norm(out - svd_prox(m, t), 2) <= 1e-14
    # the kept singular values just above t come out at (sigma - t)
    s = np.linalg.svd(out, compute_uv=False)
    np.testing.assert_allclose(s[:5], [1.0 - t, 1e-3 - t, 1e-6 - t, 2e-10, 0.5e-10],
                               rtol=1e-6, atol=1e-20)

    # just above the cut the Gram route answers
    calls.clear()
    t = 2.0 * cut
    assert np.linalg.norm(prox_nuclear(m, t) - svd_prox(m, t), 2) <= 1e-12
    assert calls == []


def test_solver_path_matches_svd_based_helpers(monkeypatch):
    # a warm path solved with the Gram/LAPACK helpers and again with helpers
    # built on np.linalg.svd: the same iterates up to rounding
    problem, _ = gen_gaussian(GaussianSpec(p=6, q=10, n=25, seed=13))
    weights, schedule, _ = prepare(problem, k=6)
    fast = full_path(problem, weights, schedule, warm_start=True)
    monkeypatch.setattr(tracereg.admm, "prox_nuclear", svd_prox)
    monkeypatch.setattr(tracereg.admm, "nuclear_norm", svd_nuclear_norm)
    monkeypatch.setattr(tracereg.admm, "spectral_norm", svd_spectral_norm)
    slow = full_path(problem, weights, schedule, warm_start=True)
    assert sum(r.iters for r in fast.records) > 50
    for a, b in zip(fast.records, slow.records):
        assert a.converged and b.converged
        assert abs(a.iters - b.iters) <= CHECK_EVERY
        assert abs(a.solution.objective - b.solution.objective) <= 1e-10 * abs(b.solution.objective)
