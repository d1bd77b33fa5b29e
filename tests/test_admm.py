"""Solver engine: instances, the per-instance precompute, certified solves."""

import numpy as np
import pytest

from tracereg import (
    AdmmConfig,
    GeneralizedInstance,
    ShapeSpec,
    full_path,
    gen_shape,
    lambda_max,
    make_instance,
    nuclear_norm,
    objective_value,
    precompute,
    solve,
    subdifferential_residual,
    unvec,
    vec,
)
from tracereg.harness import GaussianSpec, gen_gaussian, prepare


def small_setup(seed, p=5, q=6, n=8, lam_ratio=0.3):
    problem, _ = gen_gaussian(GaussianSpec(p=p, q=q, n=n, seed=seed))
    weights, _, _ = prepare(problem, k=2)
    lam = lam_ratio * lambda_max(problem, weights)
    return problem, weights, lam


def scalar_instance(y=2.0, lam=0.5):
    return GeneralizedInstance(
        Xt=np.ones((1, 1, 1)), stacked=np.ones((1, 1)), y=np.array([y]),
        M1=np.eye(1), M2=np.eye(1), lam=lam,
    )


def independent_gap(problem, weights, b, lam):
    """P - D over ||y||^2/2n, from the paper's dual in original coordinates.

    theta is the KKT estimate (X vec B - y)/(n lam) divided by its dual
    gauge ||W1^{-1} (sum_i theta_i X_i) W2^{-1}||_2 when that exceeds 1.
    """
    n, y = problem.n, problem.y
    fitted = np.einsum("npq,pq->n", problem.X, b)
    resid = y - fitted
    primal = resid @ resid / (2 * n) + lam * np.linalg.svd(
        weights.W1 @ b @ weights.W2, compute_uv=False).sum()
    theta = (fitted - y) / (n * lam)
    g = np.einsum("n,npq->pq", theta, problem.X)
    gauge = np.linalg.norm(
        np.linalg.solve(weights.W2, np.linalg.solve(weights.W1, g).T).T, 2)
    shifted = theta / max(1.0, gauge) + y / (n * lam)
    dual = y @ y / (2 * n) - 0.5 * n * lam**2 * (shifted @ shifted)
    return (primal - dual) / (y @ y / (2 * n))


def test_config_validation():
    with pytest.raises(ValueError, match="tolerances"):
        AdmmConfig(tol_primal=0.0)
    with pytest.raises(ValueError, match="tolerances"):
        AdmmConfig(tol_dual=-1.0)
    with pytest.raises(ValueError, match="max_iter"):
        AdmmConfig(max_iter=0)


def test_make_instance_objective_bookkeeping():
    # the instance objective is the user-facing one
    problem, weights, lam = small_setup(0)
    instance = make_instance(problem, weights, lam)
    rng = np.random.default_rng(0)
    for _ in range(5):
        b = rng.standard_normal((problem.p, problem.q))
        resid = problem.y - problem.stacked @ vec(b)
        direct = 0.5 / problem.n * float(resid @ resid) + lam * nuclear_norm(
            weights.W1 @ b @ weights.W2
        )
        assert abs(objective_value(instance, b) - direct) <= 1e-12 * (1.0 + direct)


def test_make_instance_rejects_nonpositive_lambda():
    problem, weights, _ = small_setup(1)
    with pytest.raises(ValueError, match="lambda"):
        make_instance(problem, weights, 0.0)


def test_at_lambda_scales_consistently():
    problem, weights, lam = small_setup(2)
    base = make_instance(problem, weights, lam)
    sibling = base.at_lambda(0.7 * lam)
    assert sibling.lam == 0.7 * lam
    assert sibling.M1 is base.M1 and sibling.M2 is base.M2
    with pytest.raises(ValueError, match="positive"):
        base.at_lambda(-1.0)


def test_factor_cache_solves_the_system():
    # C = R1 Theta R2^T carries the designs, the penalty and lambda_max over
    # exactly, and solve() inverts it
    problem, weights, lam = small_setup(3)
    instance = make_instance(problem, weights, lam)
    cache = precompute(instance)
    rng = np.random.default_rng(3)
    theta = rng.standard_normal((instance.d1, instance.d2))
    c = cache.coordinates(theta)
    assert np.linalg.norm(cache.solve(c) - theta) <= 1e-10 * np.linalg.norm(theta)
    np.testing.assert_allclose(cache.Z @ vec(c), instance.stacked @ vec(theta),
                               rtol=1e-9, atol=1e-9)
    assert nuclear_norm(c) == pytest.approx(
        nuclear_norm(weights.W1 @ theta @ weights.W2), rel=1e-10)
    assert cache.lambda_max == pytest.approx(lambda_max(problem, weights), rel=1e-10)
    assert cache.lipschitz == pytest.approx(
        np.linalg.norm(cache.Z, 2) ** 2 / problem.n, rel=1e-12)


def test_precompute_rejects_rank_deficient_map():
    xt = np.ones((1, 2, 2))
    for m1 in (np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0]])):
        inst = GeneralizedInstance(
            Xt=xt, stacked=vec(xt[0])[None], y=np.ones(1),
            M1=m1, M2=np.eye(2), lam=1.0,
        )
        with pytest.raises(ValueError, match="M1 is rank deficient"):
            precompute(inst)
    inst = GeneralizedInstance(
        Xt=xt, stacked=vec(xt[0])[None], y=np.ones(1),
        M1=np.eye(2), M2=np.zeros((2, 3)), lam=1.0,
    )
    with pytest.raises(ValueError, match="M2 is rank deficient"):
        precompute(inst)


def test_solve_scalar_soft_threshold():
    # minimize (1/2)(2 - b)^2 + 0.5 |b|: the soft threshold gives b = 1.5
    inst = scalar_instance(y=2.0, lam=0.5)
    sol = solve(inst, AdmmConfig(tol_primal=1e-13, tol_dual=1e-13, max_iter=100000))
    assert sol.converged
    assert abs(sol.B[0, 0] - 1.5) <= 1e-10


def test_solve_zero_at_lambda_max():
    # the first step from zero is thresholded away entirely above lambda_max
    for seed in range(3):
        problem, weights, _ = small_setup(10 + seed)
        lmax = lambda_max(problem, weights)
        sol = solve(make_instance(problem, weights, 1.05 * lmax))
        assert sol.converged
        assert not np.any(sol.B)


def test_solve_kkt_at_convergence():
    config = AdmmConfig(tol_primal=1e-8, tol_dual=1e-8, max_iter=100000)
    for seed in range(5):
        problem, weights, lam = small_setup(20 + seed)
        sol = solve(make_instance(problem, weights, lam), config)
        assert sol.converged
        assert sol.gap <= 1e-8 and sol.dual_infeasibility <= 1e-8
        np.testing.assert_allclose(
            sol.theta, (problem.stacked @ vec(sol.B) - problem.y) / problem.n,
            rtol=1e-12, atol=1e-15)

        # stationarity: the negative loss gradient scaled by 1/lambda is a
        # subgradient of the weighted nuclear norm at the solution
        g = -unvec(
            problem.stacked.T @ (problem.stacked @ vec(sol.B) - problem.y),
            problem.p, problem.q,
        ) / (problem.n * lam)
        assert subdifferential_residual(sol.B, g, weights, rtol=1e-5) <= 1e-5


def test_reported_gap_matches_independent_dual():
    for seed, max_iter in ((40, 3), (41, 7), (42, 5000)):
        problem, weights, lam = small_setup(seed)
        sol = solve(make_instance(problem, weights, lam), AdmmConfig(max_iter=max_iter))
        own = independent_gap(problem, weights, sol.B, lam)
        assert own >= -1e-12
        assert abs(sol.gap - own) <= 1e-9 + 1e-6 * own
    assert sol.converged and sol.gap <= 1e-6


def test_solve_objective_eventually_decreases():
    problem, weights, lam = small_setup(30)
    inst = make_instance(problem, weights, lam)
    sol = solve(inst, AdmmConfig(tol_primal=1e-10, tol_dual=1e-10,
                                 track_objective=True))
    trace = sol.objective_trace
    assert len(trace) == sol.iters
    assert trace[-1] <= trace[9] + 1e-10
    assert abs(sol.objective - objective_value(inst, sol.final_state)) <= 1e-12 * (
        1.0 + abs(sol.objective)
    )


def test_solve_reports_non_convergence():
    problem, weights, lam = small_setup(31)
    inst = make_instance(problem, weights, lam)
    sol = solve(inst, AdmmConfig(max_iter=3))
    assert not sol.converged
    assert sol.iters == 3
    assert sol.gap > 1e-6 or sol.dual_infeasibility > 1e-6


def test_warm_start_reduces_total_iterations():
    problem, weights, _ = small_setup(32)
    lmax = lambda_max(problem, weights)
    lams = [0.2 * lmax, 0.25 * lmax, 0.3 * lmax, 0.35 * lmax]
    base = make_instance(problem, weights, lams[0])
    cache = precompute(base)
    # tight enough that the solves outlast a few certificate checks
    config = AdmmConfig(tol_primal=1e-10, tol_dual=1e-10)

    cold = [solve(base.at_lambda(l), config, cache=cache).iters for l in lams]
    state = None
    warm = []
    for l in lams:
        sol = solve(base.at_lambda(l), config, cache=cache, warm_start=state)
        warm.append(sol.iters)
        state = sol.final_state
    assert sum(warm) < sum(cold)


def test_rotation_equivalence():
    # rotating the designs into the maps must not change the embedded solution
    rng = np.random.default_rng(33)
    problem, weights, lam = small_setup(33)
    base = make_instance(problem, weights, lam)

    u, _ = np.linalg.qr(rng.standard_normal((problem.p, problem.p)))
    v, _ = np.linalg.qr(rng.standard_normal((problem.q, problem.q)))
    x_rot = u.T @ problem.X @ v
    rotated = GeneralizedInstance(
        Xt=x_rot,
        stacked=x_rot.transpose(0, 2, 1).reshape(problem.n, -1),
        y=problem.y,
        M1=base.M1 @ u, M2=v.T @ base.M2,
        lam=base.lam,
        left=u, right=v,
    )
    sol0 = solve(base)
    sol1 = solve(rotated)
    assert sol0.converged and sol1.converged
    assert np.linalg.norm(sol0.B - sol1.B) <= 1e-6 * (1.0 + np.linalg.norm(sol0.B))
    assert abs(sol0.objective - sol1.objective) <= 1e-8 * (1.0 + sol0.objective)


def test_cross32_n10_certified_zero_and_path():
    # 1024 unknowns against 10 rows: the problem the residual-stopped solver
    # could not finish within its iteration cap
    problem, _ = gen_shape(ShapeSpec("cross", size=32, n=10, seed=0))
    weights, schedule, _ = prepare(problem, k=10)
    sol = solve(make_instance(problem, weights, 1.05 * schedule.lambda_max))
    assert sol.converged
    assert not np.any(sol.B)

    result = full_path(problem, weights, schedule)
    assert all(r.converged for r in result.records)
    assert all(r.gap <= 1e-6 for r in result.records)
