"""Show the subspace screening rule at work along the path.

At the default threshold the rule only removes a basis direction whose
coefficient bound reads zero. Here that removes nothing, so the screened
path solves every level as the full path does. Each screen settles that
from a lower bound on all 675 entries of the bound matrix, read from one
Gram solve, and evaluates no bound itself (the bounds column reads 0);
under a raised epsilon, a level where a row or column of the lower bound
falls below it evaluates all 675. The bound is not
sound for n < pq (15 x 45 with n = 30 here): converged solutions exceed it.
Raising epsilon by hand gives smaller solves; the objective drift below
measures what they cost.
"""

import numpy as np

from tracereg import GaussianSpec, compare, gen_gaussian, prepare

problem, _ = gen_gaussian(GaussianSpec(p=15, q=45, n=30, rank=2, seed=2))
weights, schedule, _ = prepare(problem, k=10)

for epsilon in (None, 1e-3, 1e-2):
    res = compare(problem, weights, schedule, epsilon=epsilon)
    label = "default" if epsilon is None else f"epsilon={epsilon:g}"
    print(f"--- {label} ---")
    print("lambda      kept       screened r/c   bounds   objective drift")
    for rec, drift in zip(res.screened.records, res.obj_mismatch):
        d1, d2 = rec.kept_dims
        print(
            f"{rec.lam:10.6f}  {d1:3d} x {d2:3d}  "
            f"{rec.screened_rows:4d} {rec.screened_cols:4d}   {rec.bounds_evaluated:6d}   {drift:.2e}"
        )
    print(
        f"speedup {res.speedups[0]:.3f}, safety within 1e-4: {res.safety_ok}\n"
    )
