"""Solution paths over a lambda grid, with and without screening.

One runner walks the grid in ascending lambda and solves every level; the
full and screened paths differ only in an optional screening step in front
of each solve. That step follows the sequential rule: the singular bases
of the previous solution and its KKT dual estimate bound the next
solution, and the rows and columns bounded to zero are dropped before the
solver runs. A step that drops nothing leaves the level to be solved
exactly as the full path solves it. Timing totals separate setup, solver
and screening work so the two paths can be compared honestly; weight
construction is shared preprocessing and excluded from both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .admm import AdmmConfig, Solution, make_instance, precompute, solve
from .model import GramFactor, min_norm_least_squares
from .prox import singular_values, svd
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


def numerical_rank(b):
    """Rank of B: its singular values above RANK_RTOL times the largest."""
    s = singular_values(b)
    return int(np.sum(s > RANK_RTOL * s[0]))


@dataclass(frozen=True)
class PathRecord:
    """One level of a path; the solver's figures are read from its Solution."""

    lam: float
    solution: Solution
    rank: int
    solve_time_ms: float
    screen_time_ms: float = 0.0
    screened_rows: int = 0
    screened_cols: int = 0
    kept_dims: tuple = None

    @property
    def theta(self):
        """KKT dual estimate (X vec(B) - y) / (n lam)."""
        return self.solution.theta / self.lam

    @property
    def iters(self):
        return self.solution.iters

    @property
    def converged(self):
        return self.solution.converged

    @property
    def gap(self):
        return self.solution.gap

    def to_dict(self):
        return {
            "lambda": self.lam,
            "objective": self.solution.objective,
            "rank": self.rank,
            "iters": self.iters,
            "converged": self.converged,
            "gap": self.gap,
            "time_ms": self.solve_time_ms,
            "screen_time_ms": self.screen_time_ms,
            "screened_rows": self.screened_rows,
            "screened_cols": self.screened_cols,
            "kept_dims": list(self.kept_dims),
        }


@dataclass(frozen=True)
class PathResult:
    mode: str                # "full" or "screened"
    records: tuple
    setup_ms: float          # shared factorization / initialization work

    @property
    def total_ms(self):
        """Setup plus per-lambda solve and screen time; the T in speedups."""
        return self.setup_ms + sum(
            r.solve_time_ms + r.screen_time_ms for r in self.records
        )

    def objectives(self):
        return np.array([r.solution.objective for r in self.records])


def full_path(problem, weights, schedule, config=None, warm_start=False):
    """Solve the unreduced problem at every lambda, sharing one precompute."""
    return _run_path("full", problem, weights, schedule, config, warm_start)


def screened_path(problem, weights, schedule, config=None, epsilon=None, gram=None,
                  warm_start=False):
    """The path with a screening step in front of every level after the first."""
    if not problem.full_row_rank:
        raise ValueError("screening requires a numerically full row rank design")
    return _run_path("screened", problem, weights, schedule, config, warm_start,
                     epsilon=epsilon, gram=gram)


def _run_path(mode, problem, weights, schedule, config, warm_start, epsilon=None,
              gram=None):
    """Solve every level in ascending lambda; screen first in "screened" mode.

    The first level only anchors the records. The screening pipeline stays
    seeded with the minimum-norm interpolant (its residual is exactly zero,
    so theta = 0 is the matching dual estimate) until the second level's
    solution, and tracks each solution's singular bases from then on.
    """
    config = config or AdmmConfig()
    screening = mode == "screened"

    t0 = time.perf_counter()
    if screening:
        gram = gram or GramFactor(problem)
        b_ls = min_norm_least_squares(problem, gram)
        bases = svd(b_ls, full=True)
    base = make_instance(problem, weights, schedule.values[0])
    cache = precompute(base)
    setup_ms = (time.perf_counter() - t0) * 1e3

    records = []
    b_prev = None
    for m, lam in enumerate(schedule.values):
        lam = float(lam)
        advance = screening and m > 0
        reduced, screen_ms = None, 0.0
        screened, kept = (0, 0), (problem.p, problem.q)
        if advance:
            t0 = time.perf_counter()
            context = ScreenContext(
                lambda0=float(schedule.values[m - 1]), lam=lam,
                theta_prev=records[-1].theta if m > 1 else np.zeros(problem.n),
                problem=problem, gram=gram, U=bases.U_full, V=bases.V_full,
                weights=weights, b_ls=b_ls,
            )
            outcome = screen(context, epsilon=epsilon)
            screen_ms = (time.perf_counter() - t0) * 1e3
            screened = (int(outcome.screened_rows.size), int(outcome.screened_cols.size))
            kept = (int(outcome.kept_rows.size), int(outcome.kept_cols.size))
            if any(screened):
                reduced = outcome.reduced

        t0 = time.perf_counter()
        if reduced is None:
            # no reduction: the unreduced instance and the path's precompute
            sol = solve(base.at_lambda(lam), config, cache=cache, warm_start=b_prev)
        else:
            # the bases rotate between levels, so warm-start from B restricted
            # onto the kept bases; exact when nothing newly screened was active
            init = None if b_prev is None else reduced.left.T @ b_prev @ reduced.right
            sol = solve(reduced, config, cache=precompute(reduced), warm_start=init)
        solve_ms = (time.perf_counter() - t0) * 1e3
        if warm_start:
            b_prev = sol.B

        # from level 2 on the screened path the full singular bases of B
        # feed the next screen, along with the record's dual estimate
        if advance:
            bases = svd(sol.B, full=True, rtol=RANK_RTOL)
        records.append(
            PathRecord(
                lam=lam,
                solution=sol,
                rank=bases.rank if advance else numerical_rank(sol.B),
                solve_time_ms=solve_ms,
                screen_time_ms=screen_ms,
                screened_rows=screened[0],
                screened_cols=screened[1],
                kept_dims=kept,
            )
        )
    return PathResult(mode=mode, records=tuple(records), setup_ms=setup_ms)


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
            warm_start=False, gram=None):
    """Run both paths reps times on the same problem and compare them.

    Objective mismatches above SAFETY_OBJECTIVE_RTOL (relative) mark the
    comparison as a safety violation; they are reported, never dropped.
    warm_start applies to both paths alike so the timings stay comparable.
    gram, a GramFactor of the problem, goes to every screened path; None
    has each build its own.
    """
    config = config or AdmmConfig()
    t_full, t_screened = [], []
    full = screened = None
    for _ in range(max(1, reps)):
        full = full_path(problem, weights, schedule, config, warm_start=warm_start)
        screened = screened_path(problem, weights, schedule, config,
                                 epsilon=epsilon, gram=gram, warm_start=warm_start)
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
