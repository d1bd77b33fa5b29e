"""Walk the geometric penalty grid and watch the solution rank grow.

The path solves the grid top-down, from lambda_max * ratio to
lambda_max * ratio^K, warm starting each level from the solutions of the
levels above it, and prints it in ascending lambda; the weighted nuclear
norm of the solution shrinks as the penalty grows. The newton column counts
the solver's Newton steps on each level's identified rank: two per round of
each polish tried, and a polish runs more rounds while each halves the
duality gap (see tracereg.admm.NEWTON_STEPS and NEWTON_GAP_SHRINK). The last
lines total the path's prox evaluations (accepted iterations plus rejected
backtracking trials) and Newton steps, the solver's deterministic work
counts.
"""

import numpy as np

from tracereg import (
    GaussianSpec,
    full_path,
    gen_gaussian,
    nuclear_norm,
    prepare,
)

problem, b_true = gen_gaussian(GaussianSpec(p=15, q=45, n=30, rank=2, seed=1))
weights, schedule, _ = prepare(problem, k=12)

result = full_path(problem, weights, schedule, warm_start=True)

print("lambda      rank  iters  newton  objective   penalty     error")
for rec in result.records:
    sol = rec.solution
    penalty = nuclear_norm(weights.W1 @ sol.B @ weights.W2)
    err = np.linalg.norm(sol.B - b_true) / np.linalg.norm(b_true)
    print(
        f"{rec.lam:10.6f}  {rec.rank:4d}  {rec.iters:5d}  {sol.newton_steps:6d}  {sol.objective:9.6f}"
        f"  {penalty:9.6f}  {err:8.3f}"
    )
iters = sum(rec.iters for rec in result.records)
backtracks = sum(rec.solution.backtracks for rec in result.records)
newton = sum(rec.solution.newton_steps for rec in result.records)
print(f"\nprox evaluations {iters + backtracks} ({iters} iterations, {backtracks} backtracks),"
      f" Newton steps {newton}")
print(f"total wall time {result.total_ms:.0f} ms for {len(result.records)} levels")
