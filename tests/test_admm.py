"""Solver engine: instances, the per-instance precompute, certified solves."""

import numpy as np
import pytest

import tracereg.admm
from tracereg import (
    AdmmConfig,
    GeneralizedInstance,
    ShapeSpec,
    dual_feasibility_gauge,
    full_path,
    gen_shape,
    lambda_max,
    make_instance,
    nuclear_norm,
    objective_value,
    precompute,
    prox_nuclear,
    solve,
    subdifferential_residual,
    unvec,
    vec,
)
from tracereg.harness import GaussianSpec, gen_gaussian, prepare
from tracereg.model import compute_weights


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


def independent_gap(problem, weights, b, lam, point=None):
    """P - D over ||y||^2/2n, from the paper's dual in original coordinates.

    D is taken at theta = point/lam, which must be dual feasible (a
    Solution's dual_point), or by default at the radial point: the KKT
    estimate (X vec B - y)/(n lam) divided by its dual gauge
    ||W1^{-1} (sum_i theta_i X_i) W2^{-1}||_2 when that exceeds 1.
    """
    n, y = problem.n, problem.y
    fitted = np.einsum("npq,pq->n", problem.X, b)
    resid = y - fitted
    primal = resid @ resid / (2 * n) + lam * np.linalg.svd(
        weights.W1 @ b @ weights.W2, compute_uv=False).sum()
    theta = (fitted - y if point is None else n * point) / (n * lam)
    g = np.einsum("n,npq->pq", theta, problem.X)
    gauge = np.linalg.norm(
        np.linalg.solve(weights.W2, np.linalg.solve(weights.W1, g).T).T, 2)
    if point is not None:
        assert gauge <= 1 + 1e-12
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


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
def test_lambda_must_be_finite_and_positive(lam):
    problem, weights, good = small_setup(1)
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        make_instance(problem, weights, lam)
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        make_instance(problem, weights, good).at_lambda(lam)


@pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan, np.inf])
def test_tolerances_must_be_finite_and_positive(tol):
    for fields in ({"tol_primal": tol}, {"tol_dual": tol}):
        with pytest.raises(ValueError, match="tolerances must be positive and finite"):
            AdmmConfig(**fields)


def test_at_lambda_scales_consistently():
    problem, weights, lam = small_setup(2)
    base = make_instance(problem, weights, lam)
    sibling = base.at_lambda(0.7 * lam)
    assert sibling.lam == 0.7 * lam
    assert sibling.M1 is base.M1 and sibling.M2 is base.M2
    with pytest.raises(ValueError, match="positive"):
        base.at_lambda(-1.0)


@pytest.mark.parametrize("spec", [
    GaussianSpec(p=15, q=45, n=30, rank=2, seed=0),
    ShapeSpec("cross", size=32, n=10, seed=0),
    ShapeSpec("cross", size=32, n=100, seed=0),
    GaussianSpec(p=5, q=6, n=8, seed=3),
    # n < pq floors the pilot's weights: cond(W1) = 7.9e7, cond(W2) = 1e8
    GaussianSpec(p=4, q=5, n=3, seed=1),
], ids=["gaussian-15x45-n30", "cross32-n10", "cross32-n100", "gaussian-5x6-n8",
        "floored-4x5-n3"])
def test_factor_cache_solves_the_system(spec):
    # C = R1 Theta R2^T carries the designs, the penalty and lambda_max over
    # exactly, and solve() inverts it; so does a restriction to B = u B' v^T
    # with C' = Q_L^T C Q_R
    generate = gen_gaussian if isinstance(spec, GaussianSpec) else gen_shape
    problem, _ = generate(spec)
    weights, schedule, _ = prepare(problem, k=2)
    instance = make_instance(problem, weights, 0.3 * schedule.lambda_max)
    cache = precompute(instance)
    rng = np.random.default_rng(3)
    d1, d2 = instance.d1, instance.d2
    unrestricted = rng.standard_normal((d1, d2))
    u = np.linalg.qr(rng.standard_normal((d1, min(d1, 3))))[0]
    v = np.linalg.qr(rng.standard_normal((d2, min(d2, 2))))[0]
    restricted = cache.restrict(instance, u, v)
    for level, theta in (
        (cache, unrestricted),
        (restricted, u @ rng.standard_normal((u.shape[1], v.shape[1])) @ v.T),
    ):
        c = level.coordinates(theta)
        assert np.linalg.norm(level.solve(c) - theta) <= 1e-10 * np.linalg.norm(theta)
        np.testing.assert_allclose(level.Z @ vec(c), instance.stacked @ vec(theta),
                                   rtol=1e-9, atol=1e-9)
        assert nuclear_norm(c) == pytest.approx(
            nuclear_norm(weights.W1 @ theta @ weights.W2), rel=1e-10)
        assert level.lipschitz == pytest.approx(
            np.linalg.norm(level.Z, 2) ** 2 / problem.n, rel=1e-12)
    # both lambda_max factor W1 and W2, so they agree only to the maps'
    # conditioning; on the floored problem they miss the exact value by
    # 2.4e-9 (the cache's) and 1.6e-10 (model.lambda_max's)
    conditioning = np.finfo(float).eps * (np.linalg.cond(weights.W1) + np.linalg.cond(weights.W2))
    assert cache.lambda_max == pytest.approx(lambda_max(problem, weights),
                                             rel=max(1e-10, conditioning))
    gradient = unvec(cache.Z.T @ problem.y, d1, d2)
    assert restricted.lambda_max == pytest.approx(np.linalg.norm(
        restricted.q_left.T @ gradient @ restricted.q_right, 2) / problem.n, rel=1e-10)


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
    sol = solve(inst, AdmmConfig(tol_primal=1e-13, tol_dual=1e-13))
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
    config = AdmmConfig(tol_primal=1e-8, tol_dual=1e-8)
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
    # the gap is P - D at the solution's dual point, a radial one at the two
    # capped solves and a face-corrected one at the converged solve; that
    # point is dual feasible and certifies at least as well as the radial one
    kinds = []
    for seed, max_iter in ((40, 3), (41, 7), (42, 5000)):
        problem, weights, lam = small_setup(seed)
        sol = solve(make_instance(problem, weights, lam), AdmmConfig(max_iter=max_iter))
        own = independent_gap(problem, weights, sol.B, lam, sol.dual_point)
        assert own >= -1e-12
        assert abs(sol.gap - own) <= 1e-9 + 1e-6 * own
        assert own <= independent_gap(problem, weights, sol.B, lam) + 1e-12
        kinds.append(sol.dual_kind)
    assert sol.converged and sol.gap <= 1e-6
    assert kinds == ["radial", "radial", "face"]


def unpolished(instance, cache, a, b, start=None):
    """A Newton polish that never yields a point, as when its factorization fails."""
    return None


def test_certificate_confirms_the_prox_spectrum(monkeypatch):
    # a prox whose spectrum claims ||c||_* = 0 under-reports the gap at every
    # check; the exact recheck on the iterate must still decide convergence,
    # and a failed recheck must still try the face-corrected point. The
    # Newton polish is patched out of both solves, as its gate reads the
    # same under-reported gap
    def zero_spectrum(m, t, rank_hint=None, factors=False):
        out, s, u, v = prox_nuclear(m, t, rank_hint=rank_hint, factors=True)
        return out, None if s is None else np.zeros_like(s), u, v

    tol = AdmmConfig().tol_primal
    kinds = set()
    for seed in range(50, 55):
        problem, weights, lam = small_setup(seed)
        inst = make_instance(problem, weights, lam)
        with monkeypatch.context() as patch:
            patch.setattr(tracereg.admm, "_newton_point", unpolished)
            honest = solve(inst)
            patch.setattr(tracereg.admm, "prox_nuclear", zero_spectrum)
            sol = solve(inst)
        assert honest.primal_kind == sol.primal_kind == "iterate"
        own = independent_gap(problem, weights, sol.B, lam, sol.dual_point)
        assert sol.converged and sol.iters == honest.iters
        assert sol.dual_kind == honest.dual_kind
        assert own <= tol
        assert abs(sol.gap - own) <= 1e-9 + 1e-6 * own
        assert own <= independent_gap(problem, weights, sol.B, lam) + 1e-12
        kinds.add(sol.dual_kind)
    assert kinds == {"radial", "face"}


def test_solution_reads_the_certificate_that_accepted_it(monkeypatch):
    # each check computes Z^T r and its eigensolve once, a pass is confirmed
    # on the same certificate, and the objective, theta and gap come from it
    # without a second evaluation in B coordinates
    problem, weights, lam = small_setup(30)
    inst = make_instance(problem, weights, lam)
    calls = dict.fromkeys(("_certificate", "objective_value"), 0)

    def counted(name):
        original = getattr(tracereg.admm, name)

        def spy(*args):
            calls[name] += 1
            return original(*args)
        return spy

    with monkeypatch.context() as patch:
        for name in calls:
            patch.setattr(tracereg.admm, name, counted(name))
        sol = solve(inst)
    assert sol.converged and sol.iters % tracereg.admm.CHECK_EVERY == 0
    assert calls == {"_certificate": sol.iters // tracereg.admm.CHECK_EVERY,
                     "objective_value": 0}

    n, y = problem.n, problem.y
    expected = (problem.stacked @ vec(sol.B) - y) / n
    assert np.linalg.norm(sol.theta - expected) <= 1e-12 * np.linalg.norm(expected)
    # the dual at the solution's feasible point, in original coordinates
    assert sol.dual_kind == "face"
    feasible = sol.dual_point / lam
    assert dual_feasibility_gauge(feasible, problem, weights) <= 1 + 1e-12
    shifted = feasible + y / (n * lam)
    y_sq = y @ y / (2 * n)
    dual = y_sq - 0.5 * n * lam**2 * (shifted @ shifted)
    assert abs(sol.gap * y_sq - (sol.objective - dual)) <= 1e-12 * y_sq
    assert sol.gap <= independent_gap(problem, weights, sol.B, lam) + 1e-12


@pytest.mark.parametrize("p, q, n, seed, ratio, skipped", [
    (5, 6, 8, 42, 0.3, False),
    (5, 6, 8, 30, 0.3, False),
    (6, 4, 10, 3, 0.1, False),
    (4, 6, 20, 4, 0.5, False),
    # two singular values of G sit at lambda, and 2^2 > n = 3
    (4, 5, 3, 1, 0.2, True),
])
def test_face_corrected_dual_is_a_lower_bound(p, q, n, seed, ratio, skipped):
    # at every iterate of capped solves, the face-corrected point (tried
    # without the gate) is dual feasible in original coordinates and its D
    # stays below the optimum of a 1e-13 solve. The weights come from a
    # random matrix: the pilot's can be so ill-conditioned at n < pq that
    # original coordinates resolve the gauge only to about 1e-8
    problem, _ = gen_gaussian(GaussianSpec(p=p, q=q, n=n, seed=seed))
    weights = compute_weights(np.random.default_rng(seed).standard_normal((p, q)), 1.0, n)
    lam = ratio * lambda_max(problem, weights)
    inst = make_instance(problem, weights, lam)
    cache = precompute(inst)
    optimum = solve(inst, AdmmConfig(tol_primal=1e-13, tol_dual=1e-13), cache=cache)
    assert optimum.converged
    y_sq = problem.y @ problem.y / (2 * n)
    top = optimum.objective + 1e-13 * y_sq
    delta = tracereg.admm.FACE_DELTA
    outcomes = []     # k at each iterate
    for max_iter in range(1, 41):
        sol = solve(inst, AdmmConfig(max_iter=max_iter), cache=cache)
        assert sol.objective - sol.gap * y_sq <= top
        c = cache.coordinates(sol.B)
        radial = tracereg.admm._certificate(inst, cache, cache.Z @ vec(c))
        face = tracereg.admm._face_certificate(inst, cache, radial)
        # the correction needs k^2 <= n for the k singular values of the
        # dual gauge's matrix above (1 - FACE_DELTA) lambda
        g = weights.W1inv @ unvec(problem.stacked.T @ sol.theta, p, q) @ weights.W2inv
        k = int(np.sum(np.linalg.svd(g, compute_uv=False) > (1 - delta) * lam))
        assert (face is None) == (k == 0 or k * k > n)
        outcomes.append(k)
        if face is None:
            continue
        assert face.kind == "face"
        own = independent_gap(problem, weights, sol.B, lam, face.point)
        assert abs(own * y_sq - (sol.objective - face.dual)) <= 1e-12 * y_sq
        assert face.dual <= top
    ks = np.array(outcomes)
    assert np.any((ks > 0) & (ks * ks <= n))
    assert np.any(ks * ks > n) == skipped
    if skipped:
        assert ks[-1] ** 2 > n and optimum.dual_kind == "radial"


def test_solve_objective_eventually_decreases():
    problem, weights, lam = small_setup(30)
    inst = make_instance(problem, weights, lam)
    sol = solve(inst, AdmmConfig(tol_primal=1e-10, tol_dual=1e-10))
    # a solve capped at 10 iterations returns the 10th iterate of the one above
    early = solve(inst, AdmmConfig(tol_primal=1e-10, tol_dual=1e-10, max_iter=10))
    assert sol.iters > early.iters == 10
    assert sol.objective <= early.objective + 1e-10
    assert abs(sol.objective - objective_value(inst, sol.B)) <= 1e-12 * (
        1.0 + abs(sol.objective)
    )


def test_solve_reports_non_convergence():
    problem, weights, lam = small_setup(31)
    inst = make_instance(problem, weights, lam)
    sol = solve(inst, AdmmConfig(max_iter=3))
    assert not sol.converged
    assert sol.iters == 3
    assert sol.gap > 1e-6 or sol.dual_infeasibility > 1e-6


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

    cold = full_path(problem, weights, schedule)
    warm = full_path(problem, weights, schedule, warm_start=True)
    for result in (cold, warm):
        assert all(r.converged for r in result.records)
        assert all(r.gap <= 1e-6 for r in result.records)
    # each level starts from the one above it: 420 against 720 iterations
    assert sum(r.iters for r in warm.records) < sum(r.iters for r in cold.records)


def test_accepted_steps_satisfy_the_quadratic_bound(monkeypatch):
    # every trial L is at most the global Lipschitz constant, each iteration
    # starts from LIPSCHITZ_SHRINK times the last accepted L, a rejected trial
    # is retried at min(LIPSCHITZ_GROW L, lipschitz), and the step accepted at
    # L satisfies the quadratic upper bound ||Z (c - x)||^2/n <= L ||c - x||^2
    # of the loss around its extrapolation point x. The polish is patched
    # out: with it the cross16 solve certifies before any trial is rejected
    gauss, _ = gen_gaussian(GaussianSpec(p=5, q=6, n=8, seed=60))
    cross, _ = gen_shape(ShapeSpec("cross", size=16, n=10, seed=0))
    config = AdmmConfig(tol_primal=1e-10, tol_dual=1e-10)
    shrink, grow = tracereg.admm.LIPSCHITZ_SHRINK, tracereg.admm.LIPSCHITZ_GROW
    for problem, k in ((gauss, 2), (cross, 6)):
        weights, schedule, _ = prepare(problem, k=k)
        inst = make_instance(problem, weights, 0.3 * schedule.lambda_max)
        cache = precompute(inst)
        # each trial: the prox input and output as vectors in the solver's
        # layout (rows of Z) and L = lambda/t read off the threshold t
        trials = []

        def spy(m, t, rank_hint=None, factors=False):
            out, s, u, v = prox_nuclear(m, t, rank_hint=rank_hint, factors=True)
            trials.append((m.ravel().copy(), inst.lam / t, out.ravel().copy()))
            return (out, s, u, v) if factors else out

        with monkeypatch.context() as patch:
            patch.setattr(tracereg.admm, "prox_nuclear", spy)
            patch.setattr(tracereg.admm, "_newton_point", unpolished)
            sol = solve(inst, config, cache=cache)
        assert sol.converged and sol.backtracks > 0
        assert len(trials) == sol.iters + sol.backtracks

        z, n, y, top = cache.Z, inst.n, inst.y, cache.lipschitz
        lams = [lip for _, lip, _ in trials]
        assert lams[0] == pytest.approx(shrink * top, rel=1e-14)
        assert max(lams) <= top * (1 + 1e-14)
        rejected = [b > a for a, b in zip(lams, lams[1:])] + [False]
        assert sum(rejected) == sol.backtracks
        for a, b, back in zip(lams, lams[1:], rejected):
            assert b == pytest.approx(min(grow * a, top) if back else shrink * a, rel=1e-13)

        gram = z @ z.T / n
        for (m, lip, c), back in zip(trials, rejected):
            if lip >= top * (1 - 1e-14):
                continue    # the global constant: the bound holds for every step
            # m = x - Z^T (Z x - y)/(n L): solve for u = Z x, then x
            u = np.linalg.solve(np.eye(n) - gram / lip, z @ m - gram @ y / lip)
            x = m + z.T @ (u - y) / (n * lip)
            d = c - x
            curvature = float((z @ d) @ (z @ d)) / n / (lip * float(d @ d))
            if back:
                assert curvature > 1 - 1e-9
            else:
                assert curvature <= 1 + 1e-9


def test_rejected_first_trials_still_converge():
    # with the unit matrices as designs and identity maps the loss has
    # curvature L = 1/n in every direction, so each iteration's shrunken first
    # trial is rejected; one step at L lands on the solution, the soft
    # threshold of Y at n lambda
    p, q = 4, 6
    n = p * q
    xt = np.array([unvec(e, p, q) for e in np.eye(n)])
    rng = np.random.default_rng(61)
    y_mat = rng.standard_normal((p, q))
    inst = GeneralizedInstance(
        Xt=xt, stacked=np.eye(n), y=vec(y_mat), M1=np.eye(p), M2=np.eye(q), lam=0.05,
    )
    sol = solve(inst)
    assert sol.converged and sol.gap <= AdmmConfig().tol_primal
    assert sol.backtracks == sol.iters == tracereg.admm.CHECK_EVERY
    u, s, vt = np.linalg.svd(y_mat, full_matrices=False)
    expected = (u * np.maximum(s - n * inst.lam, 0.0)) @ vt
    assert np.linalg.norm(sol.B - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.linalg.matrix_rank(expected) < min(p, q)


def test_adaptive_step_takes_fewer_proxes_on_the_gaussian_path():
    # the fixed 1/L step took 7 785 prox evaluations on this warm path
    problem, _ = gen_gaussian(GaussianSpec(p=15, q=45, n=30, rank=2, seed=0))
    weights, schedule, _ = prepare(problem, k=20)
    result = full_path(problem, weights, schedule, warm_start=True)
    assert all(r.converged for r in result.records)
    proxes = sum(r.solution.iters + r.solution.backtracks for r in result.records)
    assert proxes < 7785


def test_descending_warm_path_takes_fewer_proxes_than_the_ascending_one():
    # walked in ascending lambda, cold at the smallest, this path took 5 776
    # prox evaluations; from lambda_max down it takes 3 612
    problem, _ = gen_gaussian(GaussianSpec(p=15, q=45, n=30, rank=2, seed=0))
    weights, schedule, _ = prepare(problem, k=20)
    result = full_path(problem, weights, schedule, warm_start=True)
    assert all(r.converged for r in result.records)
    proxes = sum(r.solution.iters + r.solution.backtracks for r in result.records)
    assert proxes < 5776


@pytest.mark.parametrize("spec, k, limit", [
    # started from the solution one level up, these paths took 3 612 and
    # 432 prox evaluations; extrapolated, 1 239 and 295
    (GaussianSpec(p=15, q=45, n=30, rank=2, seed=0), 20, 1300),
    (ShapeSpec("cross", size=32, n=10, seed=0), 10, 432),
    # certified on the radial dual point alone, the extrapolated paths took
    # 1 239 and 295; with the face-corrected point, 754 and 215
    (GaussianSpec(p=15, q=45, n=30, rank=2, seed=0), 20, 1000),
    (ShapeSpec("cross", size=32, n=10, seed=0), 10, 260),
    # with the Newton polish on the identified rank (NEWTON_STEPS), 227 and 100
    (GaussianSpec(p=15, q=45, n=30, rank=2, seed=0), 20, 301),
    (ShapeSpec("cross", size=32, n=10, seed=0), 10, 121),
    # with each warm level also checked, and polished, at its first
    # iteration, 110 and 52
    (GaussianSpec(p=15, q=45, n=30, rank=2, seed=0), 20, 121),
    (ShapeSpec("cross", size=32, n=10, seed=0), 10, 58),
    # with a warm try admitted on the rank alone, and stepped on while its
    # rounds halve the gap, 46, 28 and 73 (163 for cross32 n = 100 before)
    (GaussianSpec(p=15, q=45, n=30, rank=2, seed=0), 20, 50),
    (ShapeSpec("cross", size=32, n=10, seed=0), 10, 31),
    (ShapeSpec("cross", size=32, n=100, seed=0), 10, 80),
], ids=["gaussian", "cross32", "gaussian-face", "cross32-face", "gaussian-newton",
        "cross32-newton", "gaussian-first-check", "cross32-first-check",
        "gaussian-continued", "cross32-continued", "cross32-n100-continued"])
def test_extrapolated_warm_path_takes_fewer_proxes(spec, k, limit):
    generate = gen_gaussian if isinstance(spec, GaussianSpec) else gen_shape
    problem, _ = generate(spec)
    weights, schedule, _ = prepare(problem, k=k)
    result = full_path(problem, weights, schedule, warm_start=True)
    assert all(r.converged for r in result.records)
    proxes = sum(r.solution.iters + r.solution.backtracks for r in result.records)
    assert proxes < limit


@pytest.mark.parametrize("seed", range(3))
def test_warm_levels_certify_at_their_first_iteration(seed):
    # a warm level is checked at iteration 1 as well, where the polish gate
    # compares the kept rank with the rank of the level above. Measured: 16,
    # 18 and 16 of the 20 levels certify there, FISTA's first iterate or its
    # polish, and the paths take 46 / 33 / 46 prox evaluations (13, 12 and 13
    # levels and 110 / 94 / 98 proxes while the gate also read the unscaled
    # gap and a try stopped after one round)
    problem, _ = gen_gaussian(GaussianSpec(p=15, q=45, n=30, rank=2, seed=seed))
    weights, schedule, _ = prepare(problem, k=20)
    result = full_path(problem, weights, schedule, warm_start=True)
    assert all(r.converged for r in result.records)
    assert sum(r.iters == 1 for r in result.records) >= 10
    assert any(r.iters == 1 and r.solution.primal_kind == "newton" for r in result.records)


def test_a_warm_try_is_admitted_on_the_rank_alone(monkeypatch):
    # a warm solve tries the polish whenever the prox's kept rank equals the
    # rank at the previous check, at iteration 1 the level above's, whatever
    # P - D at the unscaled residual reads. On this path that gap reads 550
    # to 6 900 tol at the iteration-1 checks, far above FACE_GATE tol, which
    # held every try there back: 0 levels certified at iteration 1 and the
    # path took 163 prox evaluations. Measured now: 6 of the 9 warm levels
    # try at iteration 1, 3 certify there, and the path takes 73
    admm = tracereg.admm
    check, newton_point, level_solve = admm._check, admm._newton_point, tracereg.path.solve
    events = []

    def spy_check(instance, cache, zc, c, estimate, config):
        out = check(instance, cache, zc, c, estimate, config)
        if estimate is not None:    # FISTA's checks; a polished point's passes None
            certificate, nuclear, _ = out
            gap = admm._unscaled_gap(instance, certificate, zc, nuclear)
            events.append(("check", gap / config.tol_primal))
        return out

    def spy_solve(*args, **kwargs):
        events.append(("level", kwargs["warm_start"] is not None))
        return level_solve(*args, **kwargs)

    problem, _ = gen_shape(ShapeSpec("cross", size=32, n=100, seed=0))
    weights, schedule, _ = prepare(problem, k=10)
    with monkeypatch.context() as patch:
        patch.setattr(admm, "_check", spy_check)
        patch.setattr(admm, "_newton_point", lambda *args, **kwargs: events.append(("try",))
                      or newton_point(*args, **kwargs))
        patch.setattr(tracereg.path, "solve", spy_solve)
        result = full_path(problem, weights, schedule, warm_start=True)
    assert all(r.converged for r in result.records)
    # the unscaled gap of each warm level's first check that a try followed
    first_tries = [events[i + 1][1] for i in range(len(events) - 2)
                   if events[i] == ("level", True) and events[i + 2] == ("try",)]
    assert any(gap > admm.FACE_GATE for gap in first_tries)
    assert any(r.iters == 1 and r.solution.primal_kind == "newton" for r in result.records)


def test_a_try_that_does_not_halve_its_gap_ends(monkeypatch):
    # a polished point that fails its check while dual feasible is stepped on
    # from its own factors, but only while each round halves the gap
    # (NEWTON_GAP_SHRINK). Here every round hands back the point it started
    # from, so a try's second round reads its first round's gap, and the try
    # must end there: the path runs the iterates it runs with the polish
    # patched out (compare test_a_failed_polish_leaves_fistas_iterate).
    # Measured: 21 of the path's 134 tries reach a second round
    rounds = []     # [the factors' A a try's last round returned, its rounds]

    def stalled(instance, cache, a, b, start=None):
        if rounds and a is rounds[-1][0]:
            # a second round receives the factors the first one returned
            rounds[-1][1] += 1
            assert rounds[-1][1] <= 2, "a try went on though its gap did not shrink"
        else:
            rounds.append([a, 1])
        point = b @ a.T
        return point, cache.Z @ point.ravel(), (a, b)

    problem, _ = gen_gaussian(GaussianSpec(p=15, q=45, n=30, rank=2, seed=0))
    weights, schedule, _ = prepare(problem, k=20)
    with monkeypatch.context() as patch:
        patch.setattr(tracereg.admm, "_newton_point", stalled)
        sol = full_path(problem, weights, schedule, warm_start=True)
        patch.setattr(tracereg.admm, "_newton_point", unpolished)
        plain = full_path(problem, weights, schedule, warm_start=True)
    assert any(count == 2 for _, count in rounds)
    assert sum(r.solution.newton_steps for r in sol.records) == (
        tracereg.admm.NEWTON_STEPS * sum(count for _, count in rounds))
    for a, b in zip(sol.records, plain.records):
        assert a.converged and a.solution.primal_kind == "iterate"
        assert a.iters == b.iters
        np.testing.assert_array_equal(a.solution.B, b.solution.B)


def test_only_a_warm_solve_is_checked_before_check_every(monkeypatch):
    # a cold solve keeps the schedule of a check every CHECK_EVERY iterations:
    # capped one short of it, it runs only the final check of the returned
    # iterate. The same solve started warm from B = 0 runs the same iterates
    # and one check more, at iteration 1. (Checked at iteration 1 too, seed
    # 57 below certified at iteration 5 with a stationarity residual of
    # 6.2e-7, against the 1e-10 of test_newton_points_are_stationary.)
    config = AdmmConfig(max_iter=tracereg.admm.CHECK_EVERY - 1)
    check = tracereg.admm._check
    for seed in (50, 57):
        problem, weights, lam = small_setup(seed)
        inst = make_instance(problem, weights, lam)
        counts = []
        for start in (None, np.zeros((problem.p, problem.q))):
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(tracereg.admm, "_check",
                              lambda *args: calls.append(1) or check(*args))
                sol = solve(inst, config, warm_start=start)
            assert not sol.converged and sol.iters == config.max_iter
            counts.append((len(calls), sol.B))
        assert [c for c, _ in counts] == [1, 2]
        np.testing.assert_array_equal(counts[0][1], counts[1][1])


def test_face_correction_runs_only_behind_its_gate(monkeypatch):
    # a correction follows only a radial check that failed with the checked
    # point's dual infeasibility passing and its unscaled gap within FACE_GATE
    # tol; on the warm Gaussian path 12 of 56 checks ran one. Each of the
    # benchmark's three cold solves at 0.3 lambda_max certifies a Newton point
    # after 15 iterations, and they run one correction in all, at seed 1's
    # Newton point, which it certifies (without the polish they ran none)
    config = AdmmConfig()
    checked, corrected = [], []

    def spy(name, seen):
        original = getattr(tracereg.admm, name)

        def wrapped(*args):
            out = original(*args)
            seen.append(args[-1] if name == "_face_certificate" else out)
            return out
        return wrapped

    problems = [gen_gaussian(GaussianSpec(p=15, q=45, n=30, rank=2, seed=seed))[0]
                for seed in range(3)]
    with monkeypatch.context() as patch:
        patch.setattr(tracereg.admm, "_certificate", spy("_certificate", checked))
        patch.setattr(tracereg.admm, "_face_certificate", spy("_face_certificate", corrected))
        weights, schedule, _ = prepare(problems[0], k=20)
        result = full_path(problems[0], weights, schedule, warm_start=True)
        assert all(r.converged for r in result.records)
        assert any(r.solution.dual_kind == "face" for r in result.records)
        assert corrected and len(corrected) < len(checked)
        assert any(cert.infeasibility > config.tol_dual for cert in checked)

        def gated(certs, y):
            # the gate's P - D at the unscaled residual, with ||c||_* >= 0 left out
            unscaled = [cert.gap(0.0, cert.y_sq - (cert.residual + y) @ (cert.residual + y)
                                 / (2 * y.size)) for cert in certs]
            return (all(cert.infeasibility <= config.tol_dual for cert in certs)
                    and all(gap <= tracereg.admm.FACE_GATE * config.tol_primal
                            for gap in unscaled))

        assert gated(corrected, problems[0].y)
        counts, cold = [], []
        for problem in problems:
            corrected.clear()
            weights, schedule, _ = prepare(problem, k=20)
            inst = make_instance(problem, weights, 0.3 * schedule.lambda_max)
            sol = solve(inst, config)
            assert sol.converged and gated(corrected, problem.y)
            counts.append(len(corrected))
            cold.append((sol.iters, sol.primal_kind, sol.dual_kind))
        assert counts == [0, 1, 0]
        assert cold == [(15, "newton", "radial"), (15, "newton", "face"),
                        (15, "newton", "radial")]


def test_warm_path_takes_fewer_iterations_than_cold_at_a_tight_tolerance():
    # started from the solution one level up, the warm path took 1 460
    # accepted steps here against 1 435 cold; extrapolated, 1 405
    problem, _ = gen_gaussian(GaussianSpec(p=10, q=15, n=24, seed=32))
    weights, schedule, _ = prepare(problem, k=10)
    config = AdmmConfig(tol_primal=1e-10, tol_dual=1e-10)
    warm = full_path(problem, weights, schedule, config, warm_start=True)
    cold = full_path(problem, weights, schedule, config)
    for result in (warm, cold):
        assert all(r.converged and r.gap <= 1e-10 for r in result.records)
    assert sum(r.iters for r in warm.records) < sum(r.iters for r in cold.records)


def test_newton_points_are_stationary():
    # a level certified on the Newton point sits on its rank-r face to
    # rounding: its stationarity residual is far below the tolerance that
    # FISTA's certified iterates reach (seed 43's reads 3.0e-5 with and
    # without the polish). Measured: 28 of the 40 solves certify a Newton
    # point, with residuals at most 5.0e-14 (6.5e-14 when the polish started
    # from an SVD of the iterate)
    config = AdmmConfig(tol_primal=1e-8, tol_dual=1e-8)
    residuals = []
    for seed in range(20, 60):
        problem, weights, lam = small_setup(seed)
        sol = solve(make_instance(problem, weights, lam), config)
        assert sol.converged and sol.gap <= 1e-8 and sol.dual_infeasibility <= 1e-8
        assert sol.primal_kind in ("iterate", "newton")
        if sol.primal_kind == "iterate":
            continue
        assert sol.newton_steps >= tracereg.admm.NEWTON_STEPS
        g = -unvec(
            problem.stacked.T @ (problem.stacked @ vec(sol.B) - problem.y),
            problem.p, problem.q,
        ) / (problem.n * lam)
        residuals.append(subdifferential_residual(sol.B, g, weights, rtol=1e-5))
    assert len(residuals) >= 20
    assert max(residuals) <= 1e-10


@pytest.mark.parametrize("spec, k, rank", [
    # n < r (d1 + d2): the solve takes Woodbury's route
    (GaussianSpec(p=15, q=45, n=30, rank=2, seed=0), 20, 3),
    (ShapeSpec("cross", size=16, n=10, seed=0), 6, 2),
    # n >= r (d1 + d2): it takes the dense Cholesky
    (GaussianSpec(p=6, q=8, n=40, seed=1), 5, 2),
    (GaussianSpec(p=10, q=15, n=100, seed=2), 5, 3),
    # Woodbury's route at rank 8, the largest rank on the cross32 n = 100 path
    (ShapeSpec("cross", size=32, n=100, seed=0), 10, 8),
], ids=["gaussian-15x45", "cross16", "gaussian-6x8-n40", "gaussian-10x15-n100",
        "cross32-n100-rank8"])
def test_dense_and_woodbury_newton_steps_agree(monkeypatch, spec, k, rank):
    # both routes solve the same damped Newton system. On random (A, B) of
    # scale 0.1 at 0.2 lambda_max the two steps agree to 1.1e-8 to 3.4e-7
    # relative (2.0e-7 to 3.0e-7 on the rank-8 case). The rounding grows with
    # ||G||_2 / lambda, as D's smallest eigenvalue is NEWTON_DAMPING lambda
    # whenever ||G||_2 >= lambda: at scale 1 they agree to 1.6e-6 to 2.5e-5
    # only
    generate = gen_gaussian if isinstance(spec, GaussianSpec) else gen_shape
    problem, _ = generate(spec)
    weights, schedule, _ = prepare(problem, k=k)
    inst = make_instance(problem, weights, 0.2 * schedule.lambda_max)
    cache = precompute(inst)
    rng = np.random.default_rng(7)
    admm = tracereg.admm
    dense, woodbury = admm._dense_direction, admm._woodbury_direction
    for _ in range(3):
        a = 0.1 * rng.standard_normal((inst.d1, rank))
        b = 0.1 * rng.standard_normal((inst.d2, rank))
        own = admm._newton_step(inst, cache, a, b)
        with monkeypatch.context() as patch:
            patch.setattr(admm, "_dense_direction", woodbury)
            patch.setattr(admm, "_woodbury_direction", dense)
            other = admm._newton_step(inst, cache, a, b)
        step = np.concatenate([(own[0] - a).ravel(), (own[1] - b).ravel()])
        diff = np.concatenate([(own[0] - other[0]).ravel(), (own[1] - other[1]).ravel()])
        assert np.linalg.norm(diff) <= 1e-5 * np.linalg.norm(step)


@pytest.mark.parametrize("spec, k, rank", [
    (GaussianSpec(p=15, q=45, n=30, rank=2, seed=0), 20, 3),
    (GaussianSpec(p=10, q=15, n=100, seed=2), 5, 3),
    (ShapeSpec("cross", size=32, n=100, seed=0), 10, 8),
], ids=["gaussian-15x45", "gaussian-10x15-n100", "cross32-n100-rank8"])
def test_a_step_from_its_checks_gradient_matches_a_recomputation(spec, k, rank):
    # a continued round starts from the polished point's factors (A, B),
    # whose check computed G and ||G||_2 from Z vec(A B^T) with the same
    # products (_newton_point): the step taken from them is bitwise the one
    # that recomputes them
    generate = gen_gaussian if isinstance(spec, GaussianSpec) else gen_shape
    problem, _ = generate(spec)
    weights, schedule, _ = prepare(problem, k=k)
    inst = make_instance(problem, weights, 0.2 * schedule.lambda_max)
    cache = precompute(inst)
    rng = np.random.default_rng(7)
    admm = tracereg.admm
    a = 0.1 * rng.standard_normal((inst.d1, rank))
    b = 0.1 * rng.standard_normal((inst.d2, rank))
    polished = b @ a.T
    certificate = admm._certificate(inst, cache, cache.Z @ polished.ravel())
    fresh = admm._newton_step(inst, cache, a, b)
    reused = admm._newton_step(inst, cache, a, b, (certificate.gradient,
                                                   certificate.dual_norm))
    for own, other in zip(fresh, reused):
        np.testing.assert_array_equal(own, other)


@pytest.mark.parametrize("spec, k, kind", [
    (ShapeSpec("cross", size=32, n=100, seed=0), 10, "radial"),
    (GaussianSpec(p=15, q=45, n=30, rank=2, seed=1), 20, "face"),
], ids=["cross32-n100", "gaussian-15x45-seed1"])
def test_each_round_starts_from_its_checks_gradient(monkeypatch, spec, k, kind):
    # the first step of a round takes G and ||G||_2 from the check just
    # before it (FISTA's, or the previous round's polished point's), radial
    # or face alike, as a face check keeps the checked point's G: it runs no
    # product Z v or Z^T w and no spectral_norm; every other step runs two
    # and one. Each path has rounds after a check of the given kind
    admm = tracereg.admm
    products, norms, kinds, rounds, steps = [], [], [], [], []

    class Counted(np.ndarray):
        """Z counting its products Z v and Z^T w; those of its reshapes are not counted."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and any(isinstance(x, Counted) and x.shape in full
                                          for x in inputs):
                products.append(1)
            inputs = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    init, spectral_norm = admm.FactorCache.__init__, admm.spectral_norm
    check, newton_point, newton_step = admm._check, admm._newton_point, admm._newton_step

    def counted_init(self, instance):
        init(self, instance)
        self.Z = self.Z.view(Counted)

    def spy_check(*args):
        out = check(*args)
        kinds.append(out[0].kind)
        return out

    def spy_point(*args, **kwargs):
        rounds.append(kinds[-1])
        return newton_point(*args, **kwargs)

    def spy_step(instance, cache, a, b, start=None):
        before = len(products), len(norms)
        out = newton_step(instance, cache, a, b, start)
        steps.append((start is not None, len(products) - before[0], len(norms) - before[1]))
        return out

    generate = gen_gaussian if isinstance(spec, GaussianSpec) else gen_shape
    problem, _ = generate(spec)
    weights, schedule, _ = prepare(problem, k=k)
    size = weights.W1.shape[1] * weights.W2.shape[0]
    full = {(problem.n, size), (size, problem.n)}
    with monkeypatch.context() as patch:
        patch.setattr(admm.FactorCache, "__init__", counted_init)
        patch.setattr(admm, "spectral_norm", lambda m: norms.append(1) or spectral_norm(m))
        patch.setattr(admm, "_check", spy_check)
        patch.setattr(admm, "_newton_point", spy_point)
        patch.setattr(admm, "_newton_step", spy_step)
        result = full_path(problem, weights, schedule, warm_start=True)
    assert all(r.converged for r in result.records)
    assert len(steps) == admm.NEWTON_STEPS * len(rounds) > 0
    assert kind in rounds
    for i in range(len(rounds)):
        first, *rest = steps[admm.NEWTON_STEPS * i:admm.NEWTON_STEPS * (i + 1)]
        assert first == (True, 0, 0)
        assert all(step == (False, 2, 1) for step in rest)


def test_a_face_certificate_keeps_its_checks_gradient():
    # the correction moves only the dual point: gradient and dual_norm are
    # bitwise those of the radial check, while point and dual change
    admm = tracereg.admm
    problem, _ = gen_gaussian(GaussianSpec(p=15, q=45, n=30, rank=2, seed=1))
    weights, schedule, _ = prepare(problem, k=20)
    inst = make_instance(problem, weights, 0.3 * schedule.lambda_max)
    cache = precompute(inst)
    sol = solve(inst, cache=cache)
    assert sol.dual_kind == "face"
    radial = admm._certificate(inst, cache, cache.Z @ vec(cache.coordinates(sol.B)))
    face = admm._face_certificate(inst, cache, radial)
    assert face.kind == "face" and face.dual > radial.dual
    assert face.dual_norm == radial.dual_norm
    np.testing.assert_array_equal(face.gradient, radial.gradient)
    assert not np.array_equal(face.point, radial.point)


def test_a_failed_polish_leaves_fistas_iterate(monkeypatch):
    # a Newton point that cannot certify is never returned: with the polish
    # perturbed, every solve certifies FISTA's own iterate, at the same
    # iteration as with the polish patched out
    def perturbed(instance, cache, a, b, start=None):
        point = b @ a.T
        point += 1e-3 * np.abs(point).max()
        return point, cache.Z @ point.ravel(), (a, b)

    config = AdmmConfig(tol_primal=1e-8, tol_dual=1e-8)
    for seed in (21, 22, 23, 50, 51):
        problem, weights, lam = small_setup(seed)
        inst = make_instance(problem, weights, lam)
        assert solve(inst, config).primal_kind == "newton"
        with monkeypatch.context() as patch:
            patch.setattr(tracereg.admm, "_newton_point", unpolished)
            plain = solve(inst, config)
            patch.setattr(tracereg.admm, "_newton_point", perturbed)
            sol = solve(inst, config)
        assert sol.converged and sol.primal_kind == "iterate" and sol.newton_steps > 0
        assert sol.iters == plain.iters
        np.testing.assert_array_equal(sol.B, plain.B)
        own = independent_gap(problem, weights, sol.B, lam, sol.dual_point)
        assert own <= 1e-8 and abs(sol.gap - own) <= 1e-9 + 1e-6 * own


def test_a_failed_factorization_skips_the_polish(monkeypatch):
    # the damping is relative to lambda, so far below lambda_max rounding can
    # break a Cholesky factor of the damped system: on this 4 x 4 problem at
    # 1e-6 lambda_max, 5 of the first 500 iterations' 12 polishes fail so.
    # The solve skips them and runs on as if unpolished
    problem, _ = gen_gaussian(GaussianSpec(p=4, q=4, n=16, seed=3))
    weights, schedule, _ = prepare(problem, k=5)
    inst = make_instance(problem, weights, 1e-6 * schedule.lambda_max)
    config = AdmmConfig(max_iter=500)
    outcomes = []
    newton_point = tracereg.admm._newton_point

    def spy(*args, **kwargs):
        out = newton_point(*args, **kwargs)
        outcomes.append(out is None)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(tracereg.admm, "_newton_point", spy)
        sol = solve(inst, config)
        patch.setattr(tracereg.admm, "_newton_point", unpolished)
        plain = solve(inst, config)
    assert any(outcomes) and not all(outcomes)
    assert sol.newton_steps == tracereg.admm.NEWTON_STEPS * len(outcomes)
    assert sol.primal_kind == plain.primal_kind == "iterate"
    assert sol.iters == plain.iters
    np.testing.assert_array_equal(sol.B, plain.B)


# Far below lambda_max the gate admits a try at nearly every check and no try
# certifies. Measured on this problem at 1e-5 lambda_max: the cold solve hits
# the 5 000-iteration cap after 921 tries (1 842 Newton steps) in 0.73-0.86 s,
# and at 921 of its 1 000 checks the kept rank is unchanged and the unscaled
# gap is within FACE_GATE tol. At 1e-6 lambda_max it runs 12 tries.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the polish is tried at nearly every check far below lambda_max")
def test_an_uncertified_solve_tries_the_polish_a_modest_number_of_times():
    problem, _ = gen_gaussian(GaussianSpec(p=4, q=4, n=16, seed=3))
    weights, schedule, _ = prepare(problem, k=5)
    sol = solve(make_instance(problem, weights, 1e-5 * schedule.lambda_max))
    tries = sol.newton_steps // tracereg.admm.NEWTON_STEPS
    assert tries <= 100, (
        f"{tries} polish tries in {sol.iters} iterations (converged={sol.converged}); "
        "measured 921 tries to the 5 000-iteration cap in 0.73-0.86 s at 1e-5 lambda_max, "
        "12 at 1e-6 lambda_max")
