"""Solution paths over a lambda grid, with and without screening.

The screened path follows the sequential rule: after each solve, the
singular bases of the current solution and the KKT dual estimate feed the
screening step for the next (larger) lambda, which shrinks the problem
before the solver runs. Timing totals separate solver work from screening
work so the two paths can be compared honestly; weight construction is
shared preprocessing and excluded from both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .admm import AdmmConfig, Solution, make_instance, precompute, solve
from .model import GramFactor, min_norm_least_squares, vec
from .prox import svd
from .screen import ScreenContext, screen


@dataclass(frozen=True)
class LambdaSchedule:
    """Ascending geometric grid lambda_max * ratio^m, m = K..1."""

    lambda_max: float
    k: int
    ratio: float = 0.616
    values: np.ndarray = None

    def __post_init__(self):
        if self.lambda_max <= 0:
            raise ValueError(f"lambda_max must be positive, got {self.lambda_max}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must be in (0, 1), got {self.ratio}")
        if self.values is None:
            vals = self.lambda_max * self.ratio ** np.arange(self.k, 0, -1, dtype=float)
            object.__setattr__(self, "values", vals)
        self.values.flags.writeable = False


# singular values of B below this share of its largest do not count to its rank
RANK_RTOL = 1e-6


@dataclass(frozen=True)
class PathRecord:
    lam: float
    solution: Solution
    theta: np.ndarray        # KKT dual estimate (X vec(B) - y) / (n lam)
    rank: int
    iters: int
    converged: bool
    solve_time_ms: float
    gap: float               # the solution's certified duality gap
    screen_time_ms: float = 0.0
    screened_rows: int = 0
    screened_cols: int = 0
    kept_dims: tuple = None


@dataclass(frozen=True)
class PathResult:
    mode: str                # "full" or "screened"
    records: tuple
    setup_ms: float          # shared factorization / initialization work
    wall_ms: float

    @property
    def total_ms(self):
        """Setup plus per-lambda solve and screen time; the T in speedups."""
        return self.setup_ms + sum(
            r.solve_time_ms + r.screen_time_ms for r in self.records
        )

    def objectives(self):
        return np.array([r.solution.objective for r in self.records])


def _kkt_theta(problem, b, lam):
    return (problem.stacked @ vec(b) - problem.y) / (problem.n * lam)


def full_path(problem, weights, schedule, config=None, warm_start=False):
    """Solve the unreduced problem at every lambda, sharing one precompute."""
    config = config or AdmmConfig()
    t_wall = time.perf_counter()

    t0 = time.perf_counter()
    base = make_instance(problem, weights, schedule.values[0])
    cache = precompute(base)
    setup_ms = (time.perf_counter() - t0) * 1e3

    records = []
    state = None
    for lam in schedule.values:
        instance = base.at_lambda(float(lam))
        sol = solve(instance, config, cache=cache, warm_start=state)
        if warm_start:
            state = sol.final_state
        records.append(
            PathRecord(
                lam=float(lam),
                solution=sol,
                theta=_kkt_theta(problem, sol.B, lam),
                rank=svd(sol.B, rtol=RANK_RTOL).rank,
                iters=sol.iters,
                converged=sol.converged,
                solve_time_ms=sol.solve_time_ms,
                gap=sol.gap,
                kept_dims=(problem.p, problem.q),
            )
        )
    wall_ms = (time.perf_counter() - t_wall) * 1e3
    return PathResult(mode="full", records=tuple(records), setup_ms=setup_ms, wall_ms=wall_ms)


def screened_path(problem, weights, schedule, config=None, epsilon=None, gram=None,
                  warm_start=False):
    """Sequential screened path.

    The first grid point is solved unreduced to anchor the records; the
    screening pipeline is seeded with the minimum-norm interpolant (whose
    residual is exactly zero, making theta = 0 the matching dual estimate)
    and afterwards tracks the singular bases of each embedded solution. A
    level at which screening keeps every row and column is solved on the
    unreduced instance with the first level's precompute, warm-started from
    the previous B, exactly as the full path solves it.
    """
    if not problem.full_row_rank:
        raise ValueError("screening requires a numerically full row rank design")
    config = config or AdmmConfig()
    t_wall = time.perf_counter()

    t0 = time.perf_counter()
    gram = gram or GramFactor(problem)
    b_ls = min_norm_least_squares(problem, gram)
    bases = svd(b_ls, full=True)
    U, V = bases.U_full, bases.V_full
    setup_ms = (time.perf_counter() - t0) * 1e3

    lam1 = float(schedule.values[0])
    t0 = time.perf_counter()
    base = make_instance(problem, weights, lam1)
    cache = precompute(base)
    sol1 = solve(base, config, cache=cache)
    solve1_ms = (time.perf_counter() - t0) * 1e3
    records = [
        PathRecord(
            lam=lam1,
            solution=sol1,
            theta=_kkt_theta(problem, sol1.B, lam1),
            rank=svd(sol1.B, rtol=RANK_RTOL).rank,
            iters=sol1.iters,
            converged=sol1.converged,
            solve_time_ms=solve1_ms,
            gap=sol1.gap,
            kept_dims=(problem.p, problem.q),
        )
    ]

    theta_pipe = np.zeros(problem.n)
    b_prev = sol1.B if warm_start else None
    for m in range(1, schedule.k):
        lam0 = float(schedule.values[m - 1])
        lam = float(schedule.values[m])

        t0 = time.perf_counter()
        context = ScreenContext(
            lambda0=lam0, lam=lam, theta_prev=theta_pipe,
            problem=problem, gram=gram, U=U, V=V, weights=weights,
        )
        outcome = screen(context, epsilon=epsilon)
        screen_ms = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        if outcome.kept_rows.size == problem.p and outcome.kept_cols.size == problem.q:
            # nothing screened: the unreduced instance and its precompute serve
            sol = solve(base.at_lambda(lam), config, cache=cache, warm_start=b_prev)
        else:
            # the bases rotate between levels, so warm-start from B restricted
            # onto the kept bases; exact when nothing newly screened was active
            reduced = outcome.reduced
            init = None if b_prev is None else reduced.left.T @ b_prev @ reduced.right
            sol = solve(reduced, config, cache=precompute(reduced), warm_start=init)
        solve_ms = (time.perf_counter() - t0) * 1e3
        if warm_start:
            b_prev = sol.B

        theta_pipe = _kkt_theta(problem, sol.B, lam)
        bases = svd(sol.B, full=True, rtol=RANK_RTOL)
        U, V = bases.U_full, bases.V_full
        records.append(
            PathRecord(
                lam=lam,
                solution=sol,
                theta=theta_pipe,
                rank=bases.rank,
                iters=sol.iters,
                converged=sol.converged,
                solve_time_ms=solve_ms,
                gap=sol.gap,
                screen_time_ms=screen_ms,
                screened_rows=int(outcome.screened_rows.size),
                screened_cols=int(outcome.screened_cols.size),
                kept_dims=(int(outcome.kept_rows.size), int(outcome.kept_cols.size)),
            )
        )
    wall_ms = (time.perf_counter() - t_wall) * 1e3
    return PathResult(
        mode="screened", records=tuple(records), setup_ms=setup_ms, wall_ms=wall_ms
    )


SAFETY_OBJECTIVE_RTOL = 1e-4


@dataclass(frozen=True)
class CompareResult:
    full: PathResult
    screened: PathResult
    t_full_ms: np.ndarray        # per repetition
    t_screened_ms: np.ndarray
    speedups: np.ndarray
    obj_mismatch: np.ndarray     # per lambda, relative, from the last rep
    frob_dist: np.ndarray        # per lambda, scaled Frobenius distance
    safety_ok: bool
    converged: bool


def compare(problem, weights, schedule, config=None, reps=1, epsilon=None,
            warm_start=False):
    """Run both paths reps times on the same problem and compare them.

    Objective mismatches above SAFETY_OBJECTIVE_RTOL (relative) mark the
    comparison as a safety violation; they are reported, never dropped.
    warm_start applies to both paths alike so the timings stay comparable.
    """
    config = config or AdmmConfig()
    t_full, t_screened = [], []
    full = screened = None
    for _ in range(max(1, reps)):
        full = full_path(problem, weights, schedule, config, warm_start=warm_start)
        screened = screened_path(problem, weights, schedule, config,
                                 epsilon=epsilon, warm_start=warm_start)
        t_full.append(full.total_ms)
        t_screened.append(screened.total_ms)
    t_full = np.array(t_full)
    t_screened = np.array(t_screened)

    obj_f = full.objectives()
    obj_s = screened.objectives()
    obj_mismatch = np.abs(obj_s - obj_f) / np.maximum(np.abs(obj_f), 1e-300)
    frob = np.array(
        [
            np.linalg.norm(rs.solution.B - rf.solution.B)
            / (1.0 + np.linalg.norm(rf.solution.B))
            for rs, rf in zip(screened.records, full.records)
        ]
    )
    converged = all(r.converged for r in full.records + screened.records)
    return CompareResult(
        full=full,
        screened=screened,
        t_full_ms=t_full,
        t_screened_ms=t_screened,
        speedups=t_full / t_screened,
        obj_mismatch=obj_mismatch,
        frob_dist=frob,
        safety_ok=bool(np.all(obj_mismatch <= SAFETY_OBJECTIVE_RTOL)),
        converged=converged,
    )
