"""Lambda grids and the two solution paths, plus their comparison."""

import json

import numpy as np
import pytest

import tracereg.path
from tracereg import (
    AdmmConfig,
    LambdaSchedule,
    build_problem,
    compare,
    dual_feasibility_gauge,
    full_path,
    lambda_max,
    nuclear_norm,
    screened_path,
    solve,
)
from tracereg.cli import EXIT_OK, main
from tracereg.harness import GaussianSpec, ShapeSpec, gen_gaussian, gen_shape, prepare
from tracereg.model import GramFactor
from tracereg.path import numerical_rank

TIGHT = AdmmConfig(tol_primal=1e-8, tol_dual=1e-8)


def small_case(seed=0, p=4, q=6, n=12, k=5):
    problem, _ = gen_gaussian(GaussianSpec(p=p, q=q, n=n, seed=seed))
    weights, _, gram = prepare(problem, k=k)
    lmax = lambda_max(problem, weights)
    return problem, weights, LambdaSchedule(lambda_max=lmax, k=k), gram


# --------------------------------------------------------------- schedule


def test_schedule_geometric_values():
    sched = LambdaSchedule(lambda_max=2.0, k=3, ratio=0.5)
    np.testing.assert_allclose(sched.values, [0.25, 0.5, 1.0], rtol=1e-15)
    assert np.all(np.diff(sched.values) > 0)
    assert sched.values[-1] <= sched.lambda_max


def test_schedule_default_ratio_frozen():
    sched = LambdaSchedule(lambda_max=1.0, k=4)
    np.testing.assert_allclose(
        sched.values, [0.616 ** 4, 0.616 ** 3, 0.616 ** 2, 0.616], rtol=1e-15
    )
    with pytest.raises(ValueError):
        sched.values[0] = 99.0


def test_schedule_explicit_values_kept():
    vals = np.array([0.1, 0.7])
    sched = LambdaSchedule(lambda_max=1.0, k=2, values=vals)
    np.testing.assert_array_equal(sched.values, [0.1, 0.7])


def test_schedule_validation():
    with pytest.raises(ValueError, match="lambda_max must be positive"):
        LambdaSchedule(lambda_max=0.0, k=3)
    with pytest.raises(ValueError, match="k must be at least 1"):
        LambdaSchedule(lambda_max=1.0, k=0)
    with pytest.raises(ValueError, match=r"ratio must be in \(0, 1\)"):
        LambdaSchedule(lambda_max=1.0, k=3, ratio=1.0)
    # explicit values: k finite, positive, strictly ascending lambdas
    for values in ([0.5, 0.5], [0.7, 0.1], [0.0, 0.5], [-0.1, 0.5],
                   [0.1, np.inf], [0.1, np.nan]):
        with pytest.raises(ValueError, match="finite, positive and strictly ascending"):
            LambdaSchedule(lambda_max=1.0, k=2, values=values)
    for values in ([0.1, 0.5, 0.7], [0.5], [[0.1, 0.5]]):
        with pytest.raises(ValueError, match="values must hold k=2 lambdas"):
            LambdaSchedule(lambda_max=1.0, k=2, values=values)
    # the two explicit schedules the path tests use stay valid
    LambdaSchedule(lambda_max=1.0, k=2, values=np.array([0.1, 0.7]))
    LambdaSchedule(lambda_max=2.5, k=1, values=np.array([2.5]))


# -------------------------------------------------------------- full path


def test_full_path_records():
    problem, weights, sched, _ = small_case()
    result = full_path(problem, weights, sched)
    assert result.mode == "full"
    assert len(result.records) == sched.k
    for lam, rec in zip(sched.values, result.records):
        assert rec.lam == pytest.approx(float(lam))
        assert rec.screen_time_ms == 0.0
        assert rec.kept_dims == (problem.p, problem.q)
        assert rec.converged
        expected_theta = (
            problem.stacked @ rec.solution.B.reshape(-1, order="F") - problem.y
        ) / (problem.n * rec.lam)
        np.testing.assert_allclose(rec.theta, expected_theta, rtol=1e-12, atol=1e-15)
    assert result.total_ms == pytest.approx(
        result.setup_ms + sum(r.solve_time_ms for r in result.records)
    )


def test_paths_solve_descending_and_report_ascending(monkeypatch, tmp_path, capsys):
    real_solve = tracereg.path.solve
    solved = []
    monkeypatch.setattr(tracereg.path, "solve", lambda instance, *a, **kw: (
        solved.append(instance.lam) or real_solve(instance, *a, **kw)))

    def strictly_descending(lams):
        return all(a > b for a, b in zip(lams, lams[1:]))

    problem, weights, sched, gram = small_case(seed=2)
    for run in (full_path, lambda *a, **kw: screened_path(*a, gram=gram, **kw)):
        result = run(problem, weights, sched, warm_start=True)
        lams = [r.lam for r in result.records]
        assert lams == list(sched.values)
        assert strictly_descending(lams[::-1])
        assert solved == lams[::-1]
        solved.clear()

    assert main(["generate", "--p", "4", "--q", "5", "--n", "8", "--seed", "3",
                 "--out", str(tmp_path)]) == EXIT_OK
    manifest = capsys.readouterr().out.strip()
    assert main(["path", "--manifest", manifest, "--k", "4", "--mode", "both"]) == EXIT_OK
    lams = [r["lambda"] for r in json.loads(capsys.readouterr().out)["records"]]
    assert len(lams) == 4 and strictly_descending(lams[::-1])
    # the full path, then the screened one, each from the top of the grid
    assert solved == lams[::-1] * 2


def test_warm_levels_start_from_the_extrapolated_solutions_above(
        monkeypatch, tmp_path, capsys):
    real_solve = tracereg.path.solve
    solves = []     # (lambda, warm start, solution B) in solve order

    def spy(instance, *args, **kwargs):
        sol = real_solve(instance, *args, **kwargs)
        solves.append((instance.lam, kwargs["warm_start"], sol.B))
        return sol

    monkeypatch.setattr(tracereg.path, "solve", spy)

    def close(start, expected):
        err = np.linalg.norm(start - expected)
        assert err <= 1e-14 * np.linalg.norm(expected)

    def check_warm(path):
        lams, starts, bs = zip(*path)
        assert starts[0] is None
        np.testing.assert_array_equal(starts[1], bs[0])
        (l0, l1), lam = lams[:2], lams[2]
        close(starts[2], bs[1] + (lam - l1) / (l0 - l1) * (bs[0] - bs[1]))
        for m in range(3, len(path)):
            # Newton's divided differences through the three levels above
            (l0, l1, l2), (b0, b1, b2), lam = lams[m - 3:m], bs[m - 3:m], lams[m]
            d01, d12 = (b1 - b0) / (l1 - l0), (b2 - b1) / (l2 - l1)
            close(starts[m], b0 + (lam - l0) * d01
                  + (lam - l0) * (lam - l1) * (d12 - d01) / (l2 - l0))

    problem, weights, sched, gram = small_case(seed=2, k=6)
    for run in (full_path, lambda *a, **kw: screened_path(*a, gram=gram, **kw)):
        run(problem, weights, sched, warm_start=True)
        assert len(solves) == 6 and any(np.any(b) for _, _, b in solves)
        check_warm(solves)
        solves.clear()
        run(problem, weights, sched, warm_start=False)
        assert [start for _, start, _ in solves] == [None] * 6
        solves.clear()

    assert main(["generate", "--p", "4", "--q", "5", "--n", "8", "--seed", "3",
                 "--out", str(tmp_path)]) == EXIT_OK
    manifest = capsys.readouterr().out.strip()
    assert main(["path", "--manifest", manifest, "--k", "5", "--mode", "both",
                 "--warm-start"]) == EXIT_OK
    capsys.readouterr()
    # the full path, then the screened one
    assert len(solves) == 10
    check_warm(solves[:5])
    check_warm(solves[5:])


def test_screened_path_solves_the_gram_system_once(monkeypatch):
    # B_ls and the solved designs; every screen rotates the solved designs
    problem, weights, sched, gram = small_case(seed=1)
    real_solve = GramFactor.solve
    shapes = []
    monkeypatch.setattr(GramFactor, "solve",
                        lambda self, z: shapes.append(np.shape(z)) or real_solve(self, z))
    result = screened_path(problem, weights, sched, gram=gram)
    assert len(result.records) == 5
    assert shapes == [(problem.n,), (problem.n, problem.p * problem.q)]


def test_records_read_their_solution():
    problem, weights, sched, gram = small_case(seed=1)
    kinds = set()
    for result in (full_path(problem, weights, sched),
                   screened_path(problem, weights, sched, gram=gram)):
        for rec in result.records:
            sol = rec.solution
            assert (rec.iters, rec.converged, rec.gap) == (sol.iters, sol.converged, sol.gap)
            np.testing.assert_array_equal(rec.theta, sol.theta / rec.lam)
            assert rec.rank == numerical_rank(sol.B)
            d = rec.to_dict()
            assert (d["lambda"], d["objective"], d["iters"], d["converged"], d["gap"]) == (
                rec.lam, sol.objective, sol.iters, sol.converged, sol.gap)
            assert d["kept_dims"] == list(rec.kept_dims)
            assert d["backtracks"] == sol.backtracks
            assert d["dual_kind"] == sol.dual_kind
            kinds.add(sol.dual_kind)
    assert kinds == {"radial", "face"}


def test_full_path_single_point_at_ceiling_is_zero():
    problem, weights, _, _ = small_case(seed=3)
    lmax = lambda_max(problem, weights)
    sched = LambdaSchedule(lambda_max=lmax, k=1, values=np.array([lmax]))
    result = full_path(problem, weights, sched, TIGHT)
    assert len(result.records) == 1
    assert result.records[0].converged
    assert np.linalg.norm(result.records[0].solution.B) <= 1e-6


def test_full_path_warm_start_agrees_with_cold():
    problem, weights, sched, _ = small_case(seed=1)
    cold = full_path(problem, weights, sched)
    warm = full_path(problem, weights, sched, warm_start=True)
    for rc, rw in zip(cold.records, warm.records):
        assert rw.converged
        scale = 1.0 + abs(rc.solution.objective)
        assert abs(rw.solution.objective - rc.solution.objective) <= 1e-6 * scale


def test_full_path_penalty_nonincreasing_in_lambda():
    for seed in range(3):
        problem, weights, sched, _ = small_case(seed=seed, k=6)
        result = full_path(problem, weights, sched, TIGHT)
        penalties = [
            nuclear_norm(weights.W1 @ rec.solution.B @ weights.W2)
            for rec in result.records
        ]
        for lo, hi in zip(penalties[1:], penalties[:-1]):
            assert lo <= hi + 1e-8 * (1.0 + hi)


def test_path_duals_stay_feasible():
    problem, weights, sched, _ = small_case(seed=2)
    for result in (
        full_path(problem, weights, sched),
        screened_path(problem, weights, sched),
    ):
        for rec in result.records:
            if rec.converged:
                gauge = dual_feasibility_gauge(rec.theta, problem, weights)
                assert gauge <= 1.0 + 1e-4


# ----------------------------------------------------------- screened path


def test_screened_path_requires_full_row_rank():
    X = np.zeros((3, 2, 2))
    X[:] = np.arange(4.0).reshape(2, 2)  # identical rows: rank-1 design
    problem = build_problem(X, np.array([1.0, 1.0, 1.0]))
    with pytest.warns(UserWarning, match="not numerically full row rank"):
        weights, sched, gram = prepare(problem, k=2)
    assert gram is None
    with pytest.raises(ValueError, match="full row rank"):
        screened_path(problem, weights, sched)


@pytest.mark.filterwarnings("ignore:stacked design is not numerically full row rank")
def test_compare_factors_the_gram_before_the_full_path(monkeypatch):
    # n = 400 > pq = 150: the screened half cannot run, so the full half must not start
    problem, _ = gen_gaussian(GaussianSpec(p=10, q=15, n=400, seed=0))
    weights, sched, gram = prepare(problem, k=3)
    calls = []
    monkeypatch.setattr(tracereg.path, "full_path", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="full row rank"):
        compare(problem, weights, sched, gram=gram)
    assert calls == []


def test_screened_path_record_layout():
    problem, weights, sched, _ = small_case(seed=4)
    result = screened_path(problem, weights, sched)
    assert result.mode == "screened"
    assert len(result.records) == sched.k
    # every level is screened, the first solved one from lambda_max; at the
    # default threshold nothing is dropped here
    for rec in result.records:
        assert rec.screen_time_ms > 0.0
        assert rec.kept_dims == (problem.p, problem.q)
        assert rec.kept_dims[0] + rec.screened_rows == problem.p
        assert rec.kept_dims[1] + rec.screened_cols == problem.q
    assert result.total_ms == pytest.approx(
        result.setup_ms
        + sum(r.solve_time_ms + r.screen_time_ms for r in result.records)
    )


def test_screened_objectives_match_full_path():
    for warm in (False, True):
        problem, weights, sched, _ = small_case(seed=5, k=6)
        full = full_path(problem, weights, sched, warm_start=warm)
        scr = screened_path(problem, weights, sched, warm_start=warm)
        for rf, rs in zip(full.records, scr.records):
            assert rf.converged and rs.converged
            scale = max(abs(rf.solution.objective), 1e-300)
            assert abs(rs.solution.objective - rf.solution.objective) / scale <= 1e-6
            frob = np.linalg.norm(rs.solution.B - rf.solution.B)
            assert frob <= 1e-4 * (1.0 + np.linalg.norm(rf.solution.B))
            # at the default threshold nothing is screened, so every level
            # is solved exactly as the full path solves it
            np.testing.assert_array_equal(rs.solution.B, rf.solution.B)
            assert (rs.iters, rs.gap, rs.rank, rs.kept_dims) == (
                rf.iters, rf.gap, rf.rank, rf.kept_dims)


def test_screen_everything_path_returns_zeros():
    problem, weights, sched, _ = small_case(seed=6)
    result = screened_path(problem, weights, sched, epsilon=np.inf)
    for rec in result.records:
        assert rec.kept_dims == (0, 0)
        assert rec.screened_rows == problem.p
        assert rec.screened_cols == problem.q
        np.testing.assert_array_equal(
            rec.solution.B, np.zeros((problem.p, problem.q))
        )


def test_partial_screening_embeds_exact_zero_directions():
    # force a midrange threshold so some directions actually screen, then
    # check the embedded solutions vanish on every screened direction
    problem, weights, sched, gram = small_case(seed=7, k=4)

    from tracereg.screen import ScreenContext, screen
    from tracereg import make_instance, precompute, vec

    sol1 = solve(make_instance(problem, weights, float(sched.values[0])), TIGHT)
    theta1 = (problem.stacked @ vec(sol1.B) - problem.y) / (
        problem.n * float(sched.values[0])
    )
    u, _, vt = np.linalg.svd(sol1.B, full_matrices=True)
    context = ScreenContext(
        lambda0=float(sched.values[0]), lam=float(sched.values[1]),
        theta_prev=theta1, problem=problem, gram=gram, U=u, V=vt.T,
    )
    w = screen(context).W
    eps = float(np.percentile(np.max(np.abs(w), axis=1), 60.0))
    outcome = screen(context, epsilon=eps)
    assert outcome.screened_rows.size > 0
    instance = make_instance(problem, weights, float(sched.values[1]))
    cache = precompute(instance).restrict(
        instance, u[:, outcome.kept_rows], vt.T[:, outcome.kept_cols])
    sol = solve(instance, TIGHT, cache=cache)
    coeff = u.T @ sol.B @ vt.T
    scale = 1.0 + float(np.max(np.abs(coeff)))
    for j in outcome.screened_rows:
        assert np.max(np.abs(coeff[j, :])) <= 1e-12 * scale
    for k in outcome.screened_cols:
        assert np.max(np.abs(coeff[:, k])) <= 1e-12 * scale


# ------------------------------------------------------------------ compare


def test_compare_reports_and_safety():
    problem, weights, sched, _ = small_case(seed=8, k=4)
    res = compare(problem, weights, sched)
    assert res.t_full_ms.shape == (1,)
    assert res.t_screened_ms.shape == (1,)
    assert res.speedups.shape == (1,)
    np.testing.assert_allclose(res.speedups, res.t_full_ms / res.t_screened_ms)
    assert res.obj_mismatch.shape == (sched.k,)
    assert res.frob_dist.shape == (sched.k,)
    assert res.safety_ok
    assert res.converged
    assert np.all(res.obj_mismatch <= 1e-6)


def test_compare_warm_cross_shape_is_converged_and_safe():
    # the flag acceptance 6 leaves unchecked, on a small shape of its kind
    problem, _ = gen_shape(ShapeSpec("cross", size=16, n=10, seed=0))
    weights, sched, _ = prepare(problem, k=6)
    res = compare(problem, weights, sched, warm_start=True)
    assert res.converged and res.safety_ok
    assert all(r.gap <= 1e-6 for r in res.full.records + res.screened.records)


def test_compare_is_deterministic_across_calls():
    problem, weights, sched, _ = small_case(seed=9, k=3)
    a = compare(problem, weights, sched)
    b = compare(problem, weights, sched)
    np.testing.assert_array_equal(a.full.objectives(), b.full.objectives())
    np.testing.assert_array_equal(a.screened.objectives(), b.screened.objectives())
    for ra, rb in zip(a.screened.records, b.screened.records):
        np.testing.assert_array_equal(ra.solution.B, rb.solution.B)
