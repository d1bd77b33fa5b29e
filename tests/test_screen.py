"""Screening rule: region geometry, the coefficient bounds, reduction."""

import dataclasses
import importlib

import numpy as np
import pytest

from tracereg import (
    AdmmConfig,
    FactorCache,
    GeneralizedInstance,
    GramFactor,
    ScreenContext,
    ScreenScalars,
    build_problem,
    compute_scalars,
    f_opt,
    full_path,
    lambda_max,
    make_instance,
    min_norm_least_squares,
    precompute,
    screen,
    screened_path,
    solve,
    svd,
    vec,
)
from tracereg.harness import GaussianSpec, gen_gaussian, prepare
from tracereg.path import RANK_RTOL
from tracereg.screen import DEFAULT_EPSILON_REL, _f_opt_batch, gamma_for, p_values

TIGHT = AdmmConfig(tol_primal=1e-8, tol_dual=1e-8)

# the package exports the function screen under the module's name
screen_module = importlib.import_module("tracereg.screen")


def pipeline_context(seed, p=4, q=6, n=12, r0=0.35, r1=0.6):
    """Real screening step: solve at lambda0, carry its dual and bases."""
    problem, _ = gen_gaussian(GaussianSpec(p=p, q=q, n=n, seed=seed))
    weights, _, gram = prepare(problem, k=2)
    lmax = lambda_max(problem, weights)
    lam0, lam = r0 * lmax, r1 * lmax
    sol0 = solve(make_instance(problem, weights, lam0), TIGHT)
    assert sol0.converged
    theta0 = (problem.stacked @ vec(sol0.B) - problem.y) / (problem.n * lam0)
    u, _, vt = np.linalg.svd(sol0.B, full_matrices=True)
    context = ScreenContext(
        lambda0=lam0, lam=lam, theta_prev=theta0,
        problem=problem, gram=gram, U=u, V=vt.T,
    )
    return context, problem, weights


def restricted_level(context, weights, outcome):
    """The level's instance and the path's cache restricted to the kept directions."""
    instance = make_instance(context.problem, weights, context.lam)
    cache = precompute(instance).restrict(
        instance, context.U[:, outcome.kept_rows], context.V[:, outcome.kept_cols])
    return instance, cache


def identity_context(problem, gram, lam0, lam, theta=None):
    return ScreenContext(
        lambda0=lam0, lam=lam,
        theta_prev=np.zeros(problem.n) if theta is None else theta,
        problem=problem, gram=gram,
        U=np.eye(problem.p), V=np.eye(problem.q),
    )


def random_scalars(rng, n=8):
    """Strictly feasible region: the plane cuts the interior of the ball."""
    alpha = rng.standard_normal(n)
    c = rng.standard_normal(n)
    eta = 0.2 + rng.random()
    bp = 0.8 * (2.0 * rng.random() - 1.0) * np.linalg.norm(alpha) * eta
    return ScreenScalars(alpha=alpha, b=bp + float(c @ alpha), c=c, eta_sq=eta * eta)


def arc_maximum(gamma, scalars):
    """Independent maximum of <gamma, theta> over the plane-cut ball.

    In the plane spanned by alpha and the orthogonal part of gamma the
    region is the half-disk {u^2 + v^2 <= eta^2, a u >= bp} around c and
    the maximizer lies on its boundary arc; a dense sweep plus
    golden-section refinement pins it to machine precision.
    """
    alpha, c = scalars.alpha, scalars.c
    eta = np.sqrt(max(scalars.eta_sq, 0.0))
    a = np.linalg.norm(alpha)
    bp = scalars.b - float(c @ alpha)
    g1 = float(gamma @ alpha) / a
    g2 = np.sqrt(max(float(gamma @ gamma) - g1 * g1, 0.0))
    t_max = np.arccos(np.clip(bp / (a * eta), -1.0, 1.0))

    def h(t):
        return g1 * eta * np.cos(t) + g2 * eta * np.sin(t)

    ts = np.linspace(0.0, t_max, 20001)
    vals = h(ts)
    i = int(np.argmax(vals))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
    for _ in range(80):
        if h(x1) < h(x2):
            lo, x1 = x1, x2
            x2 = lo + phi * (hi - lo)
        else:
            hi, x2 = x2, x1
            x1 = hi - phi * (hi - lo)
    return float(c @ gamma) + max(float(vals[i]), h(0.5 * (lo + hi)))


# ---------------------------------------------------------------- scalars


def test_scalars_zero_theta():
    problem, _ = gen_gaussian(GaussianSpec(p=2, q=3, n=4, seed=5))
    _, _, gram = prepare(problem, k=2)
    lam0, lam = 0.4, 0.9
    s = compute_scalars(identity_context(problem, gram, lam0, lam))
    n, y = problem.n, problem.y
    assert s.b == 0.0
    np.testing.assert_allclose(s.alpha, y / (n * lam0), rtol=1e-15)
    np.testing.assert_allclose(s.c, -y / (2 * n * lam), rtol=1e-15)
    assert s.eta_sq == pytest.approx(y @ y / (4 * n * n * lam * lam), rel=1e-15)


def test_scalars_zero_response_degenerates_to_sphere():
    # y = 0 makes the plane tangent to the ball: the split denominator is
    # exactly zero and every bound falls back to the sphere form
    rng = np.random.default_rng(11)
    X = rng.standard_normal((4, 2, 3))
    problem = build_problem(X, np.zeros(4))
    gram = GramFactor(problem)
    t = rng.standard_normal(4)
    s = compute_scalars(identity_context(problem, gram, 0.4, 0.9, theta=t))
    tt = float(t @ t)
    np.testing.assert_allclose(s.alpha, t, rtol=1e-15)
    assert s.b == pytest.approx(tt, rel=1e-15)
    np.testing.assert_allclose(s.c, t / 2, rtol=1e-15)
    assert s.eta_sq == pytest.approx(tt / 4, rel=1e-15)
    bp = s.b - float(s.c @ s.alpha)
    assert float(s.alpha @ s.alpha) * s.eta_sq - bp * bp <= 1e-12 * tt * tt

    gamma = rng.standard_normal(4)
    sphere = float(s.c @ gamma) + np.sqrt(s.eta_sq) * np.linalg.norm(gamma)
    assert f_opt(gamma, s) == pytest.approx(sphere, rel=1e-14)


def test_scalars_alpha_shift_is_scaled_response():
    for seed in range(5):
        context, problem, _ = pipeline_context(seed)
        s = compute_scalars(context)
        np.testing.assert_allclose(
            s.alpha - context.theta_prev,
            problem.y / (problem.n * context.lambda0),
            rtol=1e-12,
        )


def test_scalars_pipeline_invariants():
    for seed in range(5):
        context, _, _ = pipeline_context(seed)
        s = compute_scalars(context)
        assert s.eta_sq >= 0.0
        a2 = float(s.alpha @ s.alpha)
        bp = s.b - float(s.c @ s.alpha)
        den = a2 * s.eta_sq - bp * bp
        assert den >= -1e-12 * (a2 * s.eta_sq + bp * bp)


def test_previous_dual_sits_on_the_ball_inside_the_halfspace():
    for seed in range(3):
        context, _, _ = pipeline_context(seed)
        s = compute_scalars(context)
        theta0 = context.theta_prev
        scale = 1.0 + float(theta0 @ theta0)
        # half-space holds with equality at theta0 by construction
        assert float(s.alpha @ theta0) - s.b == pytest.approx(0.0, abs=1e-13 * scale)
        gap = float((theta0 - s.c) @ (theta0 - s.c)) - s.eta_sq
        assert gap == pytest.approx(0.0, abs=1e-13 * scale)


def test_context_validation():
    problem, _ = gen_gaussian(GaussianSpec(p=2, q=3, n=4, seed=5))
    weights, _, gram = prepare(problem, k=2)
    ok = dict(theta_prev=np.zeros(4), problem=problem, gram=gram,
              U=np.eye(2), V=np.eye(3))
    for lam0, lam in ((0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="need positive lambda0 != lam"):
            ScreenContext(lambda0=lam0, lam=lam, **ok)
    # the region holds in either order, so a step down from lambda0 is valid
    assert ScreenContext(lambda0=1.0, lam=0.5, **ok).lambda0 == 1.0
    bad = dict(ok, U=np.eye(3))
    with pytest.raises(ValueError, match="U must be 2 x 2"):
        ScreenContext(lambda0=0.5, lam=1.0, **bad)
    bad = dict(ok, V=np.full((3, 3), 0.5))
    with pytest.raises(ValueError, match="V is not orthogonal"):
        ScreenContext(lambda0=0.5, lam=1.0, **bad)


# ------------------------------------------------------------------ f_opt


def test_f_opt_zero_gamma():
    rng = np.random.default_rng(0)
    assert f_opt(np.zeros(8), random_scalars(rng)) == 0.0


def test_f_opt_orthogonal_gamma_on_plane_through_center():
    # gamma orthogonal to alpha with b = <c, alpha>: the case condition
    # 0 < 0 fails and the sphere value is exact
    rng = np.random.default_rng(1)
    alpha = rng.standard_normal(6)
    c = rng.standard_normal(6)
    gamma = rng.standard_normal(6)
    gamma -= (gamma @ alpha) / (alpha @ alpha) * alpha
    s = ScreenScalars(alpha=alpha, b=float(c @ alpha), c=c, eta_sq=0.49)
    expected = float(c @ gamma) + 0.7 * np.linalg.norm(gamma)
    assert f_opt(gamma, s) == pytest.approx(expected, rel=1e-14)


def test_f_opt_matches_arc_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        s = random_scalars(rng)
        gamma = rng.standard_normal(s.alpha.size)
        val = f_opt(gamma, s)
        ref = arc_maximum(gamma, s)
        assert val == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_f_opt_never_below_sampled_feasible_values():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = random_scalars(rng)
        n = s.alpha.size
        gamma = rng.standard_normal(n)
        bound = f_opt(gamma, s)
        raw = rng.standard_normal((20000, n))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = np.sqrt(s.eta_sq) * rng.random(20000) ** (1.0 / (2 * n))
        pts = s.c + raw * radii[:, None]
        feasible = pts @ s.alpha >= s.b
        assert feasible.any()
        best = float(np.max(pts[feasible] @ gamma))
        assert bound >= best - 1e-12 * (1.0 + abs(bound))


def test_f_opt_reflection_matches_multiplier_form():
    # the reflected bound f_opt(-gamma), written out with the explicit
    # multiplier ratio 2 nu instead of the ring form, must agree exactly
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 100:
        s = random_scalars(rng)
        gamma = rng.standard_normal(s.alpha.size)
        a2 = float(s.alpha @ s.alpha)
        bp = s.b - float(s.c @ s.alpha)
        gsq = float(gamma @ gamma)
        sv = float(gamma @ s.alpha)
        num = gsq * a2 - sv * sv
        den = a2 * s.eta_sq - bp * bp
        if num <= 1e-9 * gsq * a2 or den <= 1e-9 * a2 * s.eta_sq:
            continue
        two_nu = np.sqrt(num / den)
        if abs(sv + two_nu * bp) <= 1e-9 * (abs(sv) + two_nu * abs(bp)):
            continue  # too close to the case boundary to evaluate stably
        if -sv < two_nu * bp:
            mirror = (
                -float(s.c @ gamma)
                + gsq / two_nu
                - (bp / a2 + sv / (two_nu * a2)) * sv
            )
        else:
            mirror = -float(s.c @ gamma) + np.sqrt(s.eta_sq) * np.linalg.norm(gamma)
        assert f_opt(-gamma, s) == pytest.approx(mirror, rel=1e-12)
        checked += 1


def test_f_opt_monotone_in_radius():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = random_scalars(rng)
        gamma = rng.standard_normal(s.alpha.size)
        vals = [
            f_opt(gamma, ScreenScalars(alpha=s.alpha, b=s.b, c=s.c,
                                       eta_sq=scale * s.eta_sq))
            for scale in (1.0, 1.5, 2.25, 4.0)
        ]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12 * (1.0 + abs(lo))


def test_f_opt_batch_matches_scalar_wrapper():
    rng = np.random.default_rng(6)
    s = random_scalars(rng)
    gammas = rng.standard_normal((s.alpha.size, 40))
    batch = _f_opt_batch(gammas, s)
    for idx in range(40):
        assert batch[idx] == pytest.approx(f_opt(gammas[:, idx], s), rel=1e-14)


# ------------------------------------------------------- gamma and bounds


def orthogonal_corner_problem(seed=8, n=3):
    # every design matrix has a zero (0, 0) entry, so the (e0, e0) pair is
    # orthogonal to the whole design and its gamma vanishes identically
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2, 2))
    X[:, 0, 0] = 0.0
    problem = build_problem(X, rng.standard_normal(n))
    _, _, gram = prepare(problem, k=2)
    return problem, gram


def test_gamma_for_orthogonal_pair_is_zero():
    problem, gram = orthogonal_corner_problem()
    context = identity_context(problem, gram, 0.3, 0.8)
    s = compute_scalars(context)
    np.testing.assert_array_equal(gamma_for(context, s, 0, 0), np.zeros(problem.n))


def test_gamma_for_single_unit_design():
    # n = 1 with X1 = u v^T of unit norm: the Gram matrix is the scalar 1
    # and gamma collapses to n * lam
    X = np.zeros((1, 2, 3))
    X[0, 0, 1] = 1.0
    problem = build_problem(X, np.array([0.7]))
    _, _, gram = prepare(problem, k=2)
    lam = 0.9
    context = identity_context(problem, gram, 0.45, lam)
    s = compute_scalars(context)
    gamma = gamma_for(context, s, 0, 1)
    assert gamma.shape == (1,)
    assert gamma[0] == pytest.approx(problem.n * lam, rel=1e-15)


def test_p_values_vanish_for_orthogonal_pair():
    problem, gram = orthogonal_corner_problem()
    context = identity_context(problem, gram, 0.3, 0.8)
    s = compute_scalars(context)
    p1, p2 = p_values(context, s, 0, 0)
    assert p1 == 0.0 and p2 == 0.0


def test_p_values_sum_nonnegative():
    for seed in range(3):
        context, problem, _ = pipeline_context(seed, p=3, q=4, n=8)
        s = compute_scalars(context)
        for j in range(problem.p):
            for k in range(problem.q):
                p1, p2 = p_values(context, s, j, k)
                assert p1 + p2 >= -1e-10 * (1.0 + abs(p1) + abs(p2))


def test_bounds_cover_solution_when_design_spans_everything():
    # with n = pq the stacked design is square and invertible, so the
    # solution coefficients are exactly base + <gamma, theta(lam)> and the
    # bounds must cover them
    for seed in range(3):
        context, problem, weights = pipeline_context(seed, p=3, q=4, n=12)
        # the premise: vec(B) always lies in the row space of the design
        proj = problem.stacked.T @ context.gram.solve(problem.stacked)
        assert np.linalg.norm(proj - np.eye(12)) <= 1e-6

        sol = solve(make_instance(problem, weights, context.lam), TIGHT)
        assert sol.converged
        coeff = context.U.T @ sol.B @ context.V
        s = compute_scalars(context)
        slack = 1e-6 * (1.0 + np.linalg.norm(sol.B))
        for j in range(problem.p):
            for k in range(problem.q):
                p1, p2 = p_values(context, s, j, k)
                assert p1 >= coeff[j, k] - slack
                assert p2 >= -coeff[j, k] - slack


# Measured with the oracle below (warm paths, tol 1e-10): the bound misses
# 1 entry at 5 of 6 levels (worst excess 0.22) for seed 0 and at 4 of 6
# levels (0.145) for seed 1, about 0.05 s per seed. On the benchmark's
# Gaussian 15 x 45, n = 30, k = 20 (seeds 0-2) it misses 1-16 entries at
# every level from the third, worst excesses 0.36 / 0.21 / 0.21. At n = pq
# (4 x 4, n = 16) it held at every level.
@pytest.mark.xfail(strict=True, reason="the sequential bound is violated when n < pq")
@pytest.mark.parametrize("seed", [0, 1])
def test_path_bound_covers_the_converged_next_solution(seed):
    # oracle: rebuild the screened path's context at each level m >= 2 from
    # the converged level m - 1 (its theta and the full bases of its B) and
    # check that W bounds the converged coefficients U^T B(lambda_m) V
    problem, _ = gen_gaussian(GaussianSpec(p=4, q=6, n=12, seed=seed))
    weights, schedule, gram = prepare(problem, k=8)
    oracle = AdmmConfig(tol_primal=1e-10, tol_dual=1e-10)
    records = full_path(problem, weights, schedule, oracle, warm_start=True).records
    assert all(r.converged for r in records)
    b_ls = min_norm_least_squares(problem, gram)
    violations = []
    for prev, cur in zip(records[1:-1], records[2:]):
        bases = svd(prev.solution.B, full=True, rtol=RANK_RTOL)
        context = ScreenContext(
            lambda0=prev.lam, lam=cur.lam, theta_prev=prev.theta,
            problem=problem, gram=gram, U=bases.U_full, V=bases.V_full, b_ls=b_ls,
        )
        w = screen(context).W
        excess = np.abs(bases.U_full.T @ cur.solution.B @ bases.V_full) - w
        missed = excess > 1e-6 * (1.0 + w.max())
        if missed.any():
            violations.append((cur.lam, int(missed.sum()), float(excess.max())))
    assert not violations, violations


# Measured with the oracle below (k = 8, so 8 steps with the one from
# lambda_max; tol 1e-10, about 0.05 s per case): at n = pq W held at every
# step. On 4 x 6, n = 12 it misses 1 entry at 6 / 6 / 5 of the 8 steps for
# seeds 0 / 1 / 2, worst excesses 0.228 / 0.148 / 0.133, as the ascending
# bound does. On the benchmark's Gaussian 15 x 45, n = 30 (k = 8, seeds 0-2)
# it misses at all 8 steps, up to 47 / 20 / 15 entries, worst excesses
# 0.265 / 0.183 / 0.153.
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p, q, n", [
    (4, 4, 16),
    (3, 5, 15),
    pytest.param(4, 6, 12, marks=pytest.mark.xfail(
        strict=True, reason="the sequential bound is violated when n < pq")),
])
def test_descending_bound_covers_the_converged_next_solution(p, q, n, seed):
    # oracle: step from lambda_max (B = 0, theta = -y/(n lambda_max), the
    # pilot's bases) to the largest grid level, then from each converged
    # level to the next smaller one with its theta and the full bases of its
    # B, and check that W bounds the converged coefficients U^T B(lambda) V
    problem, _ = gen_gaussian(GaussianSpec(p=p, q=q, n=n, seed=seed))
    weights, schedule, gram = prepare(problem, k=8)
    oracle = AdmmConfig(tol_primal=1e-10, tol_dual=1e-10)
    records = full_path(problem, weights, schedule, oracle, warm_start=True).records
    assert all(r.converged for r in records)
    b_ls = min_norm_least_squares(problem, gram)
    lam0 = lambda_max(problem, weights)
    theta0, bases = -problem.y / (problem.n * lam0), svd(b_ls, full=True)
    violations = []
    for cur in records[::-1]:
        context = ScreenContext(
            lambda0=lam0, lam=cur.lam, theta_prev=theta0,
            problem=problem, gram=gram, U=bases.U_full, V=bases.V_full, b_ls=b_ls,
        )
        w = screen(context).W
        excess = np.abs(bases.U_full.T @ cur.solution.B @ bases.V_full) - w
        missed = excess > 1e-6 * (1.0 + w.max())
        if missed.any():
            violations.append((cur.lam, int(missed.sum()), float(excess.max())))
        lam0, theta0 = cur.lam, cur.theta
        bases = svd(cur.solution.B, full=True, rtol=RANK_RTOL)
    assert not violations, violations


# ------------------------------------------------------------------ screen


def test_screen_batch_matches_per_pair_bounds():
    context, problem, _ = pipeline_context(1, p=3, q=4, n=8)
    outcome = screen(context)
    s = compute_scalars(context)
    scale = 1.0 + float(np.max(np.abs(outcome.W)))
    for j in range(problem.p):
        for k in range(problem.q):
            expected = max(p_values(context, s, j, k))
            assert abs(outcome.W[j, k] - expected) <= 1e-12 * scale


def test_screen_uses_the_given_pilot(monkeypatch):
    # a context carrying B_ls gives the same bounds without recomputing it
    context, problem, _ = pipeline_context(1, p=3, q=4, n=8)
    outcome = screen(context)
    given = dataclasses.replace(
        context, b_ls=min_norm_least_squares(problem, context.gram))
    calls = []
    monkeypatch.setattr(screen_module, "min_norm_least_squares",
                        lambda *a: calls.append(1) or min_norm_least_squares(*a))
    assert np.array_equal(screen(given).W, outcome.W)
    assert calls == []
    screen(context)
    assert calls == [1]


def test_screen_bound_matrix_nonnegative():
    for seed in range(5):
        context, _, _ = pipeline_context(seed)
        outcome = screen(context)
        scale = 1.0 + float(np.max(np.abs(outcome.W)))
        assert outcome.W.min() >= -1e-10 * scale


def test_screen_default_epsilon():
    context, _, _ = pipeline_context(2)
    outcome = screen(context)
    expected = DEFAULT_EPSILON_REL * (1.0 + float(np.max(np.abs(outcome.W))))
    assert outcome.epsilon == pytest.approx(expected, rel=1e-15)


def test_screen_partition_and_threshold_rule():
    context, problem, weights = pipeline_context(3)
    outcome = screen(context, epsilon=float(np.median(outcome_w(context))))
    w = outcome.W
    row_peak = np.max(np.abs(w), axis=1)
    col_peak = np.max(np.abs(w), axis=0)
    np.testing.assert_array_equal(outcome.screened_rows,
                                  np.flatnonzero(row_peak <= outcome.epsilon))
    np.testing.assert_array_equal(outcome.screened_cols,
                                  np.flatnonzero(col_peak <= outcome.epsilon))
    rows = np.sort(np.concatenate([outcome.screened_rows, outcome.kept_rows]))
    cols = np.sort(np.concatenate([outcome.screened_cols, outcome.kept_cols]))
    np.testing.assert_array_equal(rows, np.arange(problem.p))
    np.testing.assert_array_equal(cols, np.arange(problem.q))
    _, cache = restricted_level(context, weights, outcome)
    assert (cache.d1, cache.d2) == (outcome.kept_rows.size, outcome.kept_cols.size)
    assert cache.Z.shape == (
        problem.n, outcome.kept_rows.size * outcome.kept_cols.size
    )


def test_screened_path_restricts_the_cache_only_when_it_screens(monkeypatch):
    problem, _ = gen_gaussian(GaussianSpec(p=4, q=6, n=12, seed=1))
    weights, schedule, gram = prepare(problem, k=4)
    real = FactorCache.restrict
    calls = []
    monkeypatch.setattr(FactorCache, "restrict",
                        lambda *a: calls.append(1) or real(*a))
    result = screened_path(problem, weights, schedule, gram=gram)
    assert not any(r.screened_rows or r.screened_cols for r in result.records)
    assert calls == []
    screened_path(problem, weights, schedule, epsilon=np.inf, gram=gram)
    assert len(calls) == schedule.k


def outcome_w(context):
    return np.abs(screen(context).W)


def test_screen_everything_gives_empty_problem_and_zero_solution():
    context, problem, weights = pipeline_context(4)
    outcome = screen(context, epsilon=np.inf)
    assert outcome.kept_rows.size == 0 and outcome.kept_cols.size == 0
    instance, cache = restricted_level(context, weights, outcome)
    assert cache.d1 == 0 and cache.d2 == 0
    assert cache.Z.shape == (problem.n, 0)
    assert cache.lipschitz == cache.lambda_max == 0.0
    sol = solve(instance, cache=cache)
    assert sol.converged
    np.testing.assert_array_equal(sol.B, np.zeros((problem.p, problem.q)))


def test_screened_solve_matches_full_solve():
    for seed in range(3):
        context, problem, weights = pipeline_context(seed, p=3, q=5, n=10)
        outcome = screen(context)
        full = solve(make_instance(problem, weights, context.lam), TIGHT)
        instance, cache = restricted_level(context, weights, outcome)
        reduced = solve(instance, TIGHT, cache=cache)
        assert full.converged and reduced.converged
        scale = 1.0 + abs(full.objective)
        assert abs(reduced.objective - full.objective) <= 1e-6 * scale
        assert np.linalg.norm(reduced.B - full.B) <= 1e-6 * (
            1.0 + np.linalg.norm(full.B)
        )


def test_restricted_solve_matches_the_rotated_reduced_instance():
    # reference: the level as its own instance on the kept directions, with
    # rotated designs, composed maps and embedding bases, solved from scratch
    for seed in range(6):
        context, problem, weights = pipeline_context(seed)
        peaks = np.max(np.abs(screen(context).W), axis=1)
        for pct in (0.0, 50.0):
            outcome = screen(context, epsilon=float(np.percentile(peaks, pct)))
            assert outcome.screened_rows.size > 0
            u = context.U[:, outcome.kept_rows]
            v = context.V[:, outcome.kept_cols]
            xt = (u.T @ problem.X) @ v
            reference = GeneralizedInstance(
                Xt=xt, stacked=xt.transpose(0, 2, 1).reshape(problem.n, -1),
                y=problem.y, M1=weights.W1 @ u, M2=v.T @ weights.W2,
                lam=context.lam, left=u, right=v,
            )
            expected = solve(reference, TIGHT)
            instance, cache = restricted_level(context, weights, outcome)
            got = solve(instance, TIGHT, cache=cache)
            assert got.converged and expected.converged
            assert got.iters == expected.iters
            assert got.objective == pytest.approx(expected.objective, rel=1e-12)
            assert np.linalg.norm(got.B - expected.B) <= 1e-12 * np.linalg.norm(expected.B)


def test_screened_pairs_are_safe_against_full_solve():
    # the rule's claim: any coefficient it discards is zero in
    # the solution computed without screening (vacuous when nothing fires,
    # which is the common outcome at the default threshold)
    fired = 0
    for seed in range(5):
        context, problem, weights = pipeline_context(seed)
        outcome = screen(context)
        if outcome.screened_rows.size == 0 and outcome.screened_cols.size == 0:
            continue
        full = solve(make_instance(problem, weights, context.lam), TIGHT)
        coeff = context.U.T @ full.B @ context.V
        tol = 1e-5 * (1.0 + np.linalg.norm(full.B))
        for j in outcome.screened_rows:
            fired += 1
            assert np.max(np.abs(coeff[j, :])) <= tol
        for k in outcome.screened_cols:
            fired += 1
            assert np.max(np.abs(coeff[:, k])) <= tol
    # reported, not asserted: at the conservative threshold the rule may
    # legitimately keep everything on generic dense instances
    print(f"screened-direction safety checks exercised: {fired}")
