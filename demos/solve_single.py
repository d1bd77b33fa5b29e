"""Solve one synthetic problem at a few penalty levels and inspect the fit.

The rank column counts singular values of the weighted matrix W1 B W2,
the object the penalty actually controls; heavier penalties collapse it
toward the truth while shrinking the fit, so the best recovery error
sits lower on the path than the best rank. Each cold solve's time is split
into the precompute (the designs in the penalty's coordinates, built once
per instance) and the solve itself (Solution.solve_time_ms).
"""

import time

import numpy as np

from tracereg import (
    GaussianSpec,
    gen_gaussian,
    lambda_max,
    make_instance,
    precompute,
    prepare,
    solve,
    svd,
)

p, q, n, rank = 10, 20, 150, 2

problem, b_true = gen_gaussian(
    GaussianSpec(p=p, q=q, n=n, rank=rank, noise_std=0.05, seed=0)
)
weights, _, _ = prepare(problem)
lmax = lambda_max(problem, weights)
print(f"problem: {p} x {q}, n = {n}, true rank {rank}, lambda_max {lmax:.4f}")

for ratio in (0.8, 0.4, 0.1, 0.02):
    lam = ratio * lmax
    instance = make_instance(problem, weights, lam)
    start = time.perf_counter()
    cache = precompute(instance)
    precompute_ms = 1e3 * (time.perf_counter() - start)
    sol = solve(instance, cache=cache)
    err = np.linalg.norm(sol.B - b_true) / np.linalg.norm(b_true)
    wrank = svd(weights.W1 @ sol.B @ weights.W2, rtol=1e-5).rank
    print(
        f"lambda = {ratio:4.2f} * lambda_max: weighted rank {wrank:2d}  "
        f"objective {sol.objective:9.6f}  iters {sol.iters:4d}  "
        f"relative error {err:.3f}  precompute {precompute_ms:.2f} ms  "
        f"solve {sol.solve_time_ms:.2f} ms"
    )
