"""Problem assembly, least-squares estimate, weights and lambda_max."""

import warnings

import numpy as np
import pytest

from tracereg import (
    GramFactor,
    build_problem,
    compute_weights,
    lambda_max,
    min_norm_least_squares,
    unvec,
    vec,
)
from tracereg.harness import GaussianSpec, gen_gaussian, prepare
from tracereg.model import GRAM_RCOND


def test_vec_is_column_stacking():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(m), [1.0, 3.0, 2.0, 4.0])


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(0)
    for p, q in [(1, 1), (3, 5), (5, 3), (7, 7)]:
        m = rng.standard_normal((p, q))
        assert np.array_equal(unvec(vec(m), p, q), m)


def test_build_problem_stacked_rows_are_vec():
    # identity lands as [1, 0, 0, 1]; the (2,1) unit matrix at index 1
    problem = build_problem([np.eye(2)], [3.0])
    assert np.array_equal(problem.stacked, [[1.0, 0.0, 0.0, 1.0]])

    e21 = np.zeros((2, 2))
    e21[1, 0] = 1.0
    problem = build_problem([e21], [0.0])
    assert np.array_equal(problem.stacked, [[0.0, 1.0, 0.0, 0.0]])


def test_build_problem_stacked_matches_vec_rows():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((6, 4, 3))
    problem = build_problem(X, rng.standard_normal(6))
    for i in range(6):
        assert np.array_equal(problem.stacked[i], vec(X[i]))


def test_build_problem_validation():
    with pytest.raises(ValueError, match="n stacked"):
        build_problem(np.zeros((3, 4)), np.zeros(3))
    with pytest.raises(ValueError, match="entries but"):
        build_problem(np.zeros((3, 2, 2)), np.zeros(2))
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="X contains"):
        build_problem(bad, np.zeros(2))
    with pytest.raises(ValueError, match="y contains"):
        build_problem(np.ones((2, 2, 2)), [1.0, np.inf])
    for shape in ((0, 2, 2), (2, 0, 2), (2, 2, 0)):
        with pytest.raises(ValueError, match="at least 1"):
            build_problem(np.zeros(shape), np.zeros(shape[0]))


def test_rank_deficient_design_warns_in_prepare():
    # build_problem only validates; prepare's GramFactor decides row rank
    x = np.ones((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problem = build_problem([x, x], [1.0, 1.0])
    with pytest.warns(UserWarning, match="not numerically full row rank"):
        assert prepare(problem, k=2)[2] is None

    # more samples than matrix entries can never have full row rank
    rng = np.random.default_rng(2)
    problem = build_problem(rng.standard_normal((5, 2, 2)), np.ones(5))
    with pytest.warns(UserWarning, match="not numerically full row rank"):
        assert prepare(problem, k=2)[2] is None


def test_gaussian_design_has_full_row_rank():
    problem, _ = gen_gaussian(GaussianSpec(p=15, q=45, n=30, seed=3))
    GramFactor(problem)
    assert problem.stacked.shape == (30, 675)
    assert np.linalg.matrix_rank(problem.stacked) == 30


def test_gram_factor_solve_and_row_space_map():
    rng = np.random.default_rng(4)
    problem, _ = gen_gaussian(GaussianSpec(p=6, q=7, n=10, seed=4))
    gram = GramFactor(problem)
    g = problem.stacked @ problem.stacked.T
    for _ in range(5):
        z = rng.standard_normal(10)
        x = gram.solve(z)
        assert np.linalg.norm(g @ x - z) <= 1e-8 * np.linalg.norm(z)
        assert np.allclose(gram.row_space_map(z), problem.stacked.T @ x)


def test_gram_factor_rejects_rank_deficient_design():
    x = np.ones((2, 2))
    problem = build_problem([x, x], [1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError, match="row-rank deficient"):
        GramFactor(problem)


def test_gram_factor_refuses_more_samples_than_entries_from_the_shape(monkeypatch):
    # n > pq is refused before any n x n Gram is formed or factored
    problem, _ = gen_gaussian(GaussianSpec(p=2, q=3, n=7, seed=1))
    monkeypatch.setattr("scipy.linalg.cho_factor", lambda *a, **k: pytest.fail("factored"))
    with pytest.raises(np.linalg.LinAlgError, match="not numerically full row rank"):
        GramFactor(problem)


@pytest.mark.parametrize("seed", [0, 1])
def test_gram_rcond_threshold_sides(conditioned_design, seed):
    # a singular value ratio of 1e-4 gives rcond(X X^T) near 4e-9 > GRAM_RCOND;
    # 1e-6 gives near 4e-13, where a Gram-route pilot loses about 4e-5
    assert GRAM_RCOND == 1e-10
    kept = conditioned_design(1e-4, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gram = prepare(kept, k=2)[2]
    assert isinstance(gram, GramFactor)

    refused = conditioned_design(1e-6, seed)
    with pytest.raises(np.linalg.LinAlgError, match="GRAM_RCOND"):
        GramFactor(refused)
    with pytest.warns(UserWarning, match="not numerically full row rank"):
        assert prepare(refused, k=2)[2] is None


def test_min_norm_least_squares_zero_response():
    problem, _ = gen_gaussian(GaussianSpec(p=4, q=5, n=6, seed=5))
    problem = build_problem(problem.X, np.zeros(6))
    assert np.allclose(min_norm_least_squares(problem), 0.0)


def test_min_norm_least_squares_single_sample():
    # one sample X = I_2, y = 2: Gram is 2, so vec(B) = vec(I) * 2/2
    problem = build_problem([np.eye(2)], [2.0])
    b_ls = min_norm_least_squares(problem)
    assert np.allclose(b_ls, np.eye(2), atol=1e-12)


def test_min_norm_least_squares_interpolates():
    problem, _ = gen_gaussian(GaussianSpec(p=3, q=3, n=5, seed=6))
    gram = GramFactor(problem)
    b_ls = min_norm_least_squares(problem, gram)
    resid = problem.y - problem.stacked @ vec(b_ls)
    assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(problem.y))


def test_min_norm_least_squares_lies_in_row_space():
    problem, _ = gen_gaussian(GaussianSpec(p=5, q=8, n=9, seed=7))
    gram = GramFactor(problem)
    v = vec(min_norm_least_squares(problem, gram))
    projected = gram.row_space_map(problem.stacked @ v)
    assert np.linalg.norm(projected - v) <= 1e-8 * np.linalg.norm(v)


def test_compute_weights_identity_least_squares():
    w = compute_weights(np.eye(3), 1.0, 10)
    assert np.allclose(w.W1, np.eye(3), atol=1e-12)
    assert np.allclose(w.W2, np.eye(3), atol=1e-12)
    assert not w.floored


def test_compute_weights_scalar_power():
    # single singular value 4, gamma 1/2: weight 4^{-1/2} = 1/2
    w = compute_weights(np.array([[4.0]]), 0.5, 4)
    assert np.allclose(w.W1, [[0.5]])
    assert np.allclose(w.W2, [[0.5]])
    assert np.allclose(w.W1inv, [[2.0]])


def test_compute_weights_padding():
    # spectrum (4, 1) padded with n^{-1/2} = 0.2 to lengths p = 2, q = 3;
    # gamma = 1 inverts it, so the padded direction gets weight 5
    b_ls = np.array([[4.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    w = compute_weights(b_ls, 1.0, 25)
    assert np.allclose(np.sort(np.linalg.eigvalsh(w.W1)), [0.25, 1.0])
    assert np.allclose(np.sort(np.linalg.eigvalsh(w.W2)), [0.25, 1.0, 5.0])
    assert np.array_equal(w.s_left, [4.0, 1.0])
    assert np.array_equal(w.s_right, [4.0, 1.0, 0.2])


def test_compute_weights_invariants():
    rng = np.random.default_rng(8)
    for trial in range(20):
        p, q = rng.integers(2, 8, size=2)
        n = int(rng.integers(2, 12))
        gamma = float(rng.uniform(0.1, 1.0))
        b_ls = rng.standard_normal((p, q))
        w = compute_weights(b_ls, gamma, n)
        for m in (w.W1, w.W2):
            assert np.linalg.norm(m - m.T) <= 1e-12 * np.linalg.norm(m)
        assert np.linalg.norm(w.W1 @ w.W1inv - np.eye(p)) <= 1e-10
        assert np.linalg.norm(w.W2 @ w.W2inv - np.eye(q)) <= 1e-10
        assert np.all(w.s_left > 0) and np.all(w.s_right > 0)
        # the +gamma power really is the numerical inverse
        assert np.allclose(w.W1inv, np.linalg.inv(w.W1), rtol=1e-8, atol=1e-10)


def test_compute_weights_floors_tiny_spectra():
    b_ls = np.diag([1.0, 1e-30])
    w = compute_weights(b_ls, 1.0, 4)
    assert w.floored
    assert np.all(np.isfinite(w.W1)) and np.all(np.isfinite(w.W1inv))


def test_compute_weights_validation():
    with pytest.raises(ValueError, match="gamma"):
        compute_weights(np.eye(2), 0.0, 4)
    with pytest.raises(ValueError, match="gamma"):
        compute_weights(np.eye(2), 1.5, 4)
    with pytest.raises(ValueError, match="n must"):
        compute_weights(np.eye(2), 1.0, 0)


def test_least_squares_pilot_when_gram_is_singular():
    # n > pq: X X^T is singular, so the pilot is the least-squares fit and
    # prepare hands out no Gram factor
    problem, _ = gen_gaussian(GaussianSpec(p=3, q=4, n=40, seed=12))
    b_ls = min_norm_least_squares(problem)
    normal = problem.stacked.T @ (problem.stacked @ vec(b_ls) - problem.y)
    assert np.linalg.norm(normal) <= 1e-10 * np.linalg.norm(problem.stacked.T @ problem.y)
    with pytest.warns(UserWarning, match="full row rank"):
        weights, schedule, gram = prepare(problem, k=3)
    assert gram is None
    assert schedule.lambda_max == lambda_max(problem, weights)


def test_kronecker_identity():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p, q = rng.integers(2, 7, size=2)
        w1 = rng.standard_normal((p, p))
        w2 = rng.standard_normal((q, q))
        b = rng.standard_normal((p, q))
        lhs = np.kron(w2.T, w1) @ vec(b)
        rhs = vec(w1 @ b @ w2)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1.0 + np.linalg.norm(rhs))


def test_lambda_max_zero_response_and_homogeneity():
    problem, _ = gen_gaussian(GaussianSpec(p=4, q=6, n=7, seed=11))
    w = compute_weights(min_norm_least_squares(problem), 1.0, 7)
    zeroed = build_problem(problem.X, np.zeros(7))
    assert lambda_max(zeroed, w) == 0.0

    doubled = build_problem(problem.X, 2.0 * problem.y)
    assert np.isclose(lambda_max(doubled, w), 2.0 * lambda_max(problem, w), rtol=1e-12)
