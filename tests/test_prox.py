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


def svd_prox(m, t, rank_hint=None, factors=False):
    # the rank hint only picks an eigensolver in prox_nuclear; an SVD needs none
    U, s, Vt = np.linalg.svd(m, full_matrices=False)
    s = np.maximum(s - t, 0.0)
    out = (U * s) @ Vt
    keep = s > 0
    return (out, s[keep], U[:, keep], Vt[keep].T) if factors else out


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
    ] + [pytest.param(rng.standard_normal((p, q)), id=f"{p}x{q}")
         for p, q in ((100, 1024), (1024, 100))]


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


def straddling_t_cases():
    # wide, tall, square, rank-deficient, and singular values clustered a
    # relative 1e-12 to 1e-3 around t
    rng = np.random.default_rng(14)
    t = 0.5
    clustered = [2.0, 2.0 * (1 + 1e-12), t * (1 + 1e-3), t * (1 + 1e-9), t, t * (1 - 1e-9),
                 t * (1 - 1e-3), 0.1, 0.1 * (1 + 1e-13)]
    cases = [(rng.standard_normal(shape), t) for shape in ((12, 40), (40, 12), (32, 32))]
    cases += [(with_singular_values(rng, 20, 30, [3.0, 1.0, 0.2]), t),
              (with_singular_values(rng, 30, 20, [3.0, 1.0, 0.2]), t)]
    cases += [(with_singular_values(rng, p, q, clustered), t)
              for p, q in ((10, 20), (20, 10), (25, 25))]
    # a threshold that keeps one singular value of a random matrix
    m = rng.standard_normal((32, 32))
    s = np.linalg.svd(m, compute_uv=False)
    return cases + [(m, 0.5 * (s[0] + s[1]))]


@pytest.mark.parametrize("case", range(len(straddling_t_cases())))
def test_prox_nuclear_rank_hint_and_spectrum(case, monkeypatch):
    # every hint gives the reference output, whichever eigensolver it picks,
    # and the returned spectrum is the output's nonzero singular values; the
    # factors that go with it rebuild the output and are orthonormal as far
    # as the Gram resolves them
    m, t = straddling_t_cases()[case]
    partial = []
    syevx = prox_module._syevx
    monkeypatch.setattr(prox_module, "_syevx",
                        lambda *a, **k: partial.append(1) or syevx(*a, **k))
    s = np.linalg.svd(m, compute_uv=False)
    kept = int(np.sum(s > t))
    ref = svd_prox(m, t)
    for hint in (None, 0, kept, max(kept - 2, 0), kept + 3, min(m.shape)):
        out, spec, u, v = prox_nuclear(m, t, rank_hint=hint, factors=True)
        assert np.linalg.norm(out - ref, 2) <= 1e-12 * s[0]
        assert np.array_equal(out, prox_nuclear(m, t, rank_hint=hint))
        s_out = np.linalg.svd(out, compute_uv=False)
        assert abs(spec.size - kept) <= 1
        np.testing.assert_allclose(np.sort(spec)[::-1], s_out[:spec.size],
                                   rtol=0, atol=1e-12 * s[0])
        assert np.all(s_out[spec.size:] <= 1e-12 * s[0])
        assert u.shape == (m.shape[0], spec.size) and v.shape == (m.shape[1], spec.size)
        assert np.linalg.norm((u * spec) @ v.T - out, 2) <= 1e-12 * s[0]
        np.testing.assert_allclose(u.T @ u, np.eye(spec.size), atol=1e-8)
        np.testing.assert_allclose(v.T @ v, np.eye(spec.size), atol=1e-8)
    # hint 0 takes the partial eigensolver on every case here
    assert partial


@pytest.mark.parametrize("p,q", [(15, 45), (45, 15), (32, 32)])
def test_singular_pairs_above_match_the_svd(p, q):
    # the triples with sigma above the cut, ascending, from the one partial
    # eigensolver the prox uses too
    rng = np.random.default_rng(p + q)
    m = rng.standard_normal((p, q))
    s_ref = np.linalg.svd(m, compute_uv=False)
    for kept in (0, 1, 3):
        cut = 0.5 * (s_ref[kept - 1] + s_ref[kept]) if kept else 2.0 * s_ref[0]
        u, sigma, v = prox_module.singular_pairs_above(m, cut)
        assert u.shape == (p, kept) and v.shape == (q, kept)
        np.testing.assert_allclose(sigma, s_ref[:kept][::-1], rtol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(kept), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(kept), atol=1e-12)
        np.testing.assert_allclose(m @ v, u * sigma, atol=1e-12 * s_ref[0])
        np.testing.assert_allclose(m.T @ u, v * sigma, atol=1e-12 * s_ref[0])


@pytest.mark.parametrize("p,q", [(15, 45), (45, 15), (32, 32)])
@pytest.mark.parametrize("hint, routine", [(None, "_syevd"), (0, "_syevx")])
def test_prox_nuclear_factors_match_the_svd(p, q, hint, routine, monkeypatch):
    # both eigensolver routes return the kept singular triples of m, as
    # singular_pairs_above does: sigma = s + t ascending, m v = u sigma and
    # m^T u = v sigma
    calls = []
    for name in ("_syevd", "_syevx"):
        original = getattr(prox_module, name)
        monkeypatch.setattr(prox_module, name, lambda *a, name=name, original=original, **k:
                            calls.append(name) or original(*a, **k))
    rng = np.random.default_rng(p + q)
    m = rng.standard_normal((p, q))
    s_ref = np.linalg.svd(m, compute_uv=False)
    for kept in (1, 3):
        t = 0.5 * (s_ref[kept - 1] + s_ref[kept])
        _, s, u, v = prox_nuclear(m, t, rank_hint=hint, factors=True)
        sigma = s + t
        assert u.shape == (p, kept) and v.shape == (q, kept)
        np.testing.assert_allclose(sigma, s_ref[:kept][::-1], rtol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(kept), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(kept), atol=1e-12)
        np.testing.assert_allclose(m @ v, u * sigma, atol=1e-12 * s_ref[0])
        np.testing.assert_allclose(m.T @ u, v * sigma, atol=1e-12 * s_ref[0])
    assert calls == [routine, routine]


def test_prox_nuclear_spectrum_edge_cases():
    m = np.diag([3.0, 1.0, 0.5])
    out, spec, _, _ = prox_nuclear(m, 2.0, factors=True)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(spec, [1.0], rtol=1e-15)
    for hint in (None, 0):
        out, spec, _, _ = prox_nuclear(m, 5.0, rank_hint=hint, factors=True)
        assert not np.any(out) and spec.size == 0
    assert prox_nuclear(m, 0.0, factors=True)[1:] == (None, None, None)
    out, spec, u, v = prox_nuclear(np.zeros((0, 3)), 1.0, factors=True)
    assert out.shape == (0, 3) and spec.size == 0
    assert u.shape == (0, 0) and v.shape == (3, 0)


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
    out, spec, u, v = prox_nuclear(m, t, factors=True)
    assert calls == [t] and spec is None and u is None and v is None
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
    # built on np.linalg.svd: the same iterates up to rounding. The polish
    # starts from the prox's factors, so it reads the SVD's in the second
    # run. (Seed 13 with k = 6 ran 65 iterations before warm levels were
    # checked at their first iteration, and 38 after. With k = 10 this path
    # ran 70, and 36 once a warm try went on while its rounds halved the
    # gap; with k = 15 it runs 86.)
    problem, _ = gen_gaussian(GaussianSpec(p=6, q=10, n=25, seed=11))
    weights, schedule, _ = prepare(problem, k=15)
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
