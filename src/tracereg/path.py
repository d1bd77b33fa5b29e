"""Solution paths over a lambda grid, with and without screening.

One runner walks the grid from lambda_max down, solves every level and
returns the records in ascending lambda; the full and screened paths
differ only in an optional screening step in front of each solve. That
step follows the sequential rule: the singular bases of the previous
(larger lambda) solution and its KKT dual estimate bound the next
solution, and the level is solved on the path's FactorCache restricted to
the directions it keeps (FactorCache.restrict). The first step starts from
lambda_max itself, where B = 0 and the dual solution is -y/(n lambda_max),
so every level is screened; any orthogonal bases are singular bases of
B = 0, and the standard bases are taken. A step that drops nothing leaves
the level to be solved exactly as the full path solves it. Timing totals
separate setup, solver and screening work so the two paths can be
compared honestly; weight construction is shared preprocessing and
excluded from both.

A warm path starts each level from the quadratic in lambda through the
solutions of the three levels above it (fewer above: their secant, their
one solution, or B = 0). Certified on the radial dual point alone, that cut
the prox evaluations on the benchmark's warm full paths from 3 612 / 1 890
/ 2 186 (Gaussian 15 x 45, n = 30, seeds 0-2), 432 and 835 (cross 32 x 32,
n = 10 and 100) with the last solution as start to 1 239 / 917 / 1 068, 295
and 798. With the face-corrected dual point (admm.FACE_GATE) the paths take
754 / 722 / 751, 215 and 654, and with the Newton polish on each level's
identified rank (admm.NEWTON_STEPS) 227 / 217 / 215, 100 and 178. Each
warm level also passes solve the rank of the level above, from its record:
the solve checks its start at iteration 1, where the polish gate compares
the kept rank with that one. The paths then take 110 / 94 / 98, 52 and
163. A warm solve's polish gate reads the rank alone, and a try goes on
from a feasible polished point while each round halves the gap
(admm.NEWTON_GAP_SHRINK): the paths then take 46 / 33 / 46, 28 and 73, and
16 / 18 / 16, 8 and 3 of their levels certify at iteration 1. Each
record's dual_kind says which dual point certified its level, primal_kind
whether FISTA's iterate or the polished point was certified, and
newton_steps how many Newton steps the level ran. A full-path record's
rank is timed with its solve, as the next level's solve reads it; a
screened record's comes from the SVD timed as screening.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .admm import AdmmConfig, Solution, make_instance, precompute, solve
from .model import GramFactor
from .prox import singular_values, svd
from .screen import ScreenContext, _check_epsilon, screen


@dataclass(frozen=True)
class LambdaSchedule:
    """Ascending geometric grid lambda_max * ratio^m, m = K..1.

    Explicit values replace the grid; they must be k finite, positive and
    strictly ascending lambdas.
    """

    lambda_max: float
    k: int
    ratio: float = 0.616
    values: np.ndarray = None

    def __post_init__(self):
        if not 0.0 < self.lambda_max < np.inf:
            raise ValueError(f"lambda_max must be positive and finite, got {self.lambda_max}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must be in (0, 1), got {self.ratio}")
        if self.values is None:
            vals = self.lambda_max * self.ratio ** np.arange(self.k, 0, -1, dtype=float)
        else:
            vals = np.array(self.values, dtype=float)
            if vals.shape != (self.k,):
                raise ValueError(
                    f"values must hold k={self.k} lambdas, got shape {vals.shape}")
            if not (np.all(np.isfinite(vals)) and np.all(vals > 0)
                    and np.all(np.diff(vals) > 0)):
                raise ValueError(
                    f"values must be finite, positive and strictly ascending, got {vals}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


# singular values of B below this share of its largest do not count to its rank
RANK_RTOL = 1e-6


def numerical_rank(b):
    """Rank of B: its singular values above RANK_RTOL times the largest."""
    s = singular_values(b)
    return int(np.sum(s > RANK_RTOL * s[0]))


# a warm level starts from the polynomial in lambda through the solutions of
# the last PREDICTOR_POINTS levels above it. Prox evaluations per warm full
# path with 1 / 2 / 3 / 4 points (constant, secant, quadratic, cubic),
# certified on the radial dual point alone:
# Gaussian 15 x 45 n = 30 seed 0 3 612 / 1 616 / 1 239 / 1 163, seed 1
# 1 890 / 1 159 / 917 / 901, seed 2 2 186 / 1 410 / 1 068 / 957; cross32
# n = 10 432 / 330 / 295 / 260 and n = 100 835 / 801 / 798 / 815. Over 15
# probed problems the quadratic beat the constant on all, and the cubic lost
# to it on 8 (Gaussian 15 x 45 seeds 3-5 and n = 100, 40 x 20, 35 x 30, and
# cross 32 x 32 and 64 x 64 at n = 100).
PREDICTOR_POINTS = 3


def extrapolate(levels, lam):
    """The Lagrange polynomial in lambda through levels' (lambda, B), at lam.

    None for no levels, the one B for one level: a path's first solved
    level starts from B = 0, its second from the first one's solution.
    """
    if not levels:
        return None
    lams = [lam_j for lam_j, _ in levels]
    return sum(
        np.prod([(lam - lam_m) / (lam_j - lam_m) for lam_m in lams if lam_m != lam_j]) * b_j
        for lam_j, b_j in levels)


@dataclass(frozen=True)
class PathRecord:
    """One level of a path; the solver's figures are read from its Solution."""

    lam: float
    solution: Solution
    rank: int
    solve_time_ms: float
    screen_time_ms: float = 0.0   # screen, restriction and the SVD of B
    screened_rows: int = 0
    screened_cols: int = 0
    kept_dims: tuple = None
    bounds_evaluated: int = 0     # W entries the screen computed; 0 unscreened or
                                  # decided by the lower bound (screen.lower_bound)

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
            "backtracks": self.solution.backtracks,
            "converged": self.converged,
            "gap": self.gap,
            "dual_kind": self.solution.dual_kind,
            "newton_steps": self.solution.newton_steps,
            "primal_kind": self.solution.primal_kind,
            "time_ms": self.solve_time_ms,
            "screen_time_ms": self.screen_time_ms,
            "screened_rows": self.screened_rows,
            "screened_cols": self.screened_cols,
            "kept_dims": list(self.kept_dims),
            "bounds_evaluated": self.bounds_evaluated,
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
    """The path with a screening step in front of every level.

    Screening needs a GramFactor of the problem; without one passed in it
    is built first, so a design it refuses raises before any level runs.
    """
    gram = gram or GramFactor(problem)
    return _run_path("screened", problem, weights, schedule, config, warm_start,
                     epsilon=epsilon, gram=gram)


def _run_path(mode, problem, weights, schedule, config, warm_start, epsilon=None,
              gram=None):
    """Solve every level in descending lambda; screen first in "screened" mode.

    The records come back in the schedule's ascending order. Each level is
    solved after the one above it. The first solved level starts from B = 0,
    the solution at lambda_max; on a warm path every later level starts from
    extrapolate() through the last PREDICTOR_POINTS solved levels: the
    second from the first one's solution, the third from the secant through
    the two above it, and every later one from the quadratic through the
    three above it. Such a level also gets the rank of the level above
    (solve's warm_rank). A start outside a restricted cache's span is
    projected by cache.coordinates, and every level is certified by the same
    gap test whatever it starts from. The screened mode starts at lambda_max
    too: its dual solution there is -y/(n lambda_max), and any orthogonal
    bases are singular bases of B = 0 (the standard bases are taken). Each
    level is screened from the one solved before it: its dual estimate and
    the full singular bases of its B, an SVD timed as screening.
    """
    config = config or AdmmConfig()
    screening = mode == "screened"

    t0 = time.perf_counter()
    base = make_instance(problem, weights, schedule.values[0])
    cache = precompute(base)
    if screening:
        U, V = np.eye(problem.p), np.eye(problem.q)
        lam_prev = cache.lambda_max
        theta_prev = -problem.y / (problem.n * lam_prev)
    setup_ms = (time.perf_counter() - t0) * 1e3

    records = []
    solved = []     # (lambda, B) of the last PREDICTOR_POINTS levels, warm only
    for lam in schedule.values[::-1]:
        lam = float(lam)
        level_cache, screen_ms = cache, 0.0
        screened, kept, bounds = (0, 0), (problem.p, problem.q), 0
        if screening:
            t0 = time.perf_counter()
            # the identity and a full SVD's bases are orthogonal by construction
            context = ScreenContext.from_orthogonal_bases(lam_prev, lam, theta_prev,
                                                          gram, U, V)
            outcome = screen(context, epsilon=epsilon)
            screened = (int(outcome.screened_rows.size), int(outcome.screened_cols.size))
            kept = (int(outcome.kept_rows.size), int(outcome.kept_cols.size))
            bounds = outcome.bounds_evaluated
            if any(screened):
                level_cache = cache.restrict(base, U[:, outcome.kept_rows],
                                             V[:, outcome.kept_cols])
            screen_ms = (time.perf_counter() - t0) * 1e3

        # a warm level's polish gate reads the rank of the level above
        t0 = time.perf_counter()
        sol = solve(base.at_lambda(lam), config, cache=level_cache,
                    warm_start=extrapolate(solved, lam),
                    warm_rank=records[-1].rank if solved else None)
        if not screening:
            rank = numerical_rank(sol.B)
        solve_ms = (time.perf_counter() - t0) * 1e3
        if warm_start:
            solved = (solved + [(lam, sol.B)])[-PREDICTOR_POINTS:]

        # on the screened path the full singular bases of B feed the next
        # screen, along with the record's dual estimate, and give the rank
        if screening:
            t0 = time.perf_counter()
            bases = svd(sol.B, full=True, rtol=RANK_RTOL)
            rank, U, V = bases.rank, bases.U_full, bases.V_full
            screen_ms += (time.perf_counter() - t0) * 1e3
        record = PathRecord(
            lam=lam,
            solution=sol,
            rank=rank,
            solve_time_ms=solve_ms,
            screen_time_ms=screen_ms,
            screened_rows=screened[0],
            screened_cols=screened[1],
            kept_dims=kept,
            bounds_evaluated=bounds,
        )
        records.append(record)
        lam_prev, theta_prev = lam, record.theta
    return PathResult(mode=mode, records=tuple(records[::-1]), setup_ms=setup_ms)


SAFETY_OBJECTIVE_RTOL = 1e-4


@dataclass(frozen=True)
class CompareResult:
    full: PathResult
    screened: PathResult
    t_full_ms: np.ndarray        # one entry: the paths run once
    t_screened_ms: np.ndarray
    speedups: np.ndarray
    obj_mismatch: np.ndarray     # per lambda, relative
    frob_dist: np.ndarray        # per lambda, scaled Frobenius distance
    safety_ok: bool
    converged: bool


def compare(problem, weights, schedule, config=None, epsilon=None,
            warm_start=False, gram=None):
    """Run both paths once on the same problem and compare them.

    Objective mismatches above SAFETY_OBJECTIVE_RTOL (relative) mark the
    comparison as a safety violation; they are reported, never dropped.
    warm_start applies to both paths alike so the timings stay comparable.
    gram, a GramFactor of the problem, goes to the screened path; None has
    it built first, so a design GramFactor refuses raises before the full
    path runs, as does an epsilon that screen refuses.
    """
    _check_epsilon(epsilon)
    gram = gram or GramFactor(problem)
    full = full_path(problem, weights, schedule, config, warm_start=warm_start)
    screened = screened_path(problem, weights, schedule, config,
                             epsilon=epsilon, gram=gram, warm_start=warm_start)

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
        t_full_ms=np.array([full.total_ms]),
        t_screened_ms=np.array([screened.total_ms]),
        speedups=np.array([full.total_ms / screened.total_ms]),
        obj_mismatch=obj_mismatch,
        frob_dist=frob,
        safety_ok=bool(np.all(obj_mismatch <= SAFETY_OBJECTIVE_RTOL)),
        converged=converged,
    )
