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


def test_certificate_confirms_the_prox_spectrum(monkeypatch):
    # a prox whose spectrum claims ||c||_* = 0 under-reports the gap at every
    # check; the exact recheck on the iterate must still decide convergence,
    # and a failed recheck must still try the face-corrected point
    def zero_spectrum(m, t, rank_hint=None, spectrum=False):
        out, s = prox_nuclear(m, t, rank_hint=rank_hint, spectrum=True)
        return out, None if s is None else np.zeros_like(s)

    tol = AdmmConfig().tol_primal
    kinds = set()
    for seed in range(50, 55):
        problem, weights, lam = small_setup(seed)
        inst = make_instance(problem, weights, lam)
        honest = solve(inst)
        with monkeypatch.context() as patch:
            patch.setattr(tracereg.admm, "prox_nuclear", zero_spectrum)
            sol = solve(inst)
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
        c = cache.coordinates(sol.final_state)
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
    # of the loss around its extrapolation point x
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

        def spy(m, t, rank_hint=None, spectrum=False):
            out, s = prox_nuclear(m, t, rank_hint=rank_hint, spectrum=True)
            trials.append((m.ravel().copy(), inst.lam / t, out.ravel().copy()))
            return (out, s) if spectrum else out

        with monkeypatch.context() as patch:
            patch.setattr(tracereg.admm, "prox_nuclear", spy)
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
], ids=["gaussian", "cross32", "gaussian-face", "cross32-face"])
def test_extrapolated_warm_path_takes_fewer_proxes(spec, k, limit):
    generate = gen_gaussian if isinstance(spec, GaussianSpec) else gen_shape
    problem, _ = generate(spec)
    weights, schedule, _ = prepare(problem, k=k)
    result = full_path(problem, weights, schedule, warm_start=True)
    assert all(r.converged for r in result.records)
    proxes = sum(r.solution.iters + r.solution.backtracks for r in result.records)
    assert proxes < limit


def test_face_correction_runs_only_behind_its_gate(monkeypatch):
    # a correction follows only a radial check that failed with the iterate's
    # dual infeasibility passing and its unscaled gap within FACE_GATE tol; on
    # the warm Gaussian path 26 of 142 checks ran one, and the benchmark's
    # three cold solves at 0.3 lambda_max run none
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
        assert all(cert.infeasibility <= config.tol_dual for cert in corrected)
        # the gate's P - D at the unscaled residual, with ||c||_* >= 0 left out
        n, y = problems[0].n, problems[0].y
        assert all(
            cert.gap(0.0, cert.y_sq - (cert.residual + y) @ (cert.residual + y) / (2 * n))
            <= tracereg.admm.FACE_GATE * config.tol_primal for cert in corrected)
        for problem in problems:
            corrected.clear()
            weights, schedule, _ = prepare(problem, k=20)
            inst = make_instance(problem, weights, 0.3 * schedule.lambda_max)
            assert solve(inst, config).converged
            assert corrected == []


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
