"""Command line front end.

Exit codes: 0 success, 2 solver failed to converge, 3 screened/full
objective mismatch beyond tolerance, 4 bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .admm import AdmmConfig, make_instance, precompute, solve
from .harness import (
    GaussianSpec,
    ShapeSpec,
    bench,
    gen_gaussian,
    gen_shape,
    load_problem,
    prepare,
    report,
    save_problem,
)
from .path import compare, full_path, numerical_rank, screened_path

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_SAFETY = 3
EXIT_INPUT = 4


def _add_problem_flags(sub):
    """Generator arguments, shared by generate and bench."""
    sub.add_argument("--kind", choices=("gaussian", "shape"), default="gaussian")
    sub.add_argument("--p", type=int, default=15)
    sub.add_argument("--q", type=int, default=45)
    sub.add_argument("--n", type=int, default=30)
    sub.add_argument("--rank", type=int, default=2)
    sub.add_argument("--shape", default="cross")
    sub.add_argument("--size", type=int, default=64)
    sub.add_argument("--noise-std", type=float, default=0.1)
    sub.add_argument("--seed", type=int, default=0)


def _problem_spec(args):
    if args.kind == "shape":
        return ShapeSpec(name=args.shape, n=args.n, size=args.size,
                         noise_std=args.noise_std, seed=args.seed)
    return GaussianSpec(p=args.p, q=args.q, n=args.n, rank=args.rank,
                        noise_std=args.noise_std, seed=args.seed)


def _add_solver_flags(sub):
    sub.add_argument("--gamma", type=float, default=1.0, help="weight exponent in (0, 1]")
    sub.add_argument("--tol", type=float, default=1e-6,
                     help="relative duality gap and dual infeasibility tolerance")
    sub.add_argument("--max-iter", type=int, default=5000, help="iteration cap per solve")


def _add_grid_flags(sub, k_default=20):
    sub.add_argument("--k", type=int, default=k_default, help="number of grid points")
    sub.add_argument("--ratio", type=float, default=0.616, help="grid decay ratio")


def _config(args):
    return AdmmConfig(tol_primal=args.tol, tol_dual=args.tol, max_iter=args.max_iter)


def _emit(payload, out):
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args):
    """Write a synthetic problem: its manifest and .npy data, b_true.csv and meta.json.

    problem_y.csv and problem_X.csv are text copies of the .npy data, at 17
    significant digits, for reading by eye; no command reads them.
    """
    spec = _problem_spec(args)
    problem, b_true = (gen_shape if args.kind == "shape" else gen_gaussian)(spec)
    manifest = save_problem(problem, args.out)
    np.savetxt(f"{args.out}/problem_y.csv", problem.y, fmt="%.17g")
    np.savetxt(f"{args.out}/problem_X.csv", problem.stacked, fmt="%.17g", delimiter=",")
    np.savetxt(f"{args.out}/b_true.csv", b_true, fmt="%.17g", delimiter=",")
    meta = dataclasses.asdict(spec)
    meta["kind"] = args.kind
    meta["manifest"] = manifest
    with open(f"{args.out}/meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    sys.stdout.write(manifest + "\n")
    return EXIT_OK


def cmd_solve(args):
    problem = load_problem(args.manifest)
    weights, schedule, _ = prepare(problem, gamma=args.gamma)
    lam = args.lam if args.lam is not None else args.lambda_ratio * schedule.lambda_max
    instance = make_instance(problem, weights, lam)
    solution = solve(instance, _config(args), precompute(instance))
    payload = {
        "lambda": lam,
        "objective": solution.objective,
        "rank": numerical_rank(solution.B),
        "iters": solution.iters,
        "converged": solution.converged,
        "gap": solution.gap,
        "dual_kind": solution.dual_kind,
        "time_ms": solution.solve_time_ms,
        "primal_residual": solution.gap,
        "dual_residual": solution.dual_infeasibility,
        "B": solution.B.tolist(),
    }
    _emit(payload, args.out)
    return EXIT_OK if solution.converged else EXIT_NO_CONVERGENCE


def cmd_path(args):
    problem = load_problem(args.manifest)
    weights, schedule, gram = prepare(problem, gamma=args.gamma, k=args.k, ratio=args.ratio)
    if args.mode != "full" and gram is None:
        # fail before any path runs, not after the full one
        raise ValueError("screening requires a numerically full row rank design; "
                         "use path --mode full")
    config = _config(args)

    results, totals = {}, {}
    if args.mode == "both":
        comparison = compare(problem, weights, schedule, config, epsilon=args.epsilon,
                             warm_start=args.warm_start, gram=gram)
        results = {"full": comparison.full, "screened": comparison.screened}
        totals = {
            "T_f_ms": float(comparison.t_full_ms[-1]),
            "T_s_ms": float(comparison.t_screened_ms[-1]),
            "speedup": float(comparison.speedups[-1]),
            "objective_mismatch": float(np.max(comparison.obj_mismatch)),
        }
    elif args.mode == "full":
        results["full"] = full_path(problem, weights, schedule, config,
                                    warm_start=args.warm_start)
        totals["T_f_ms"] = results["full"].total_ms
    else:
        results["screened"] = screened_path(problem, weights, schedule, config,
                                            epsilon=args.epsilon, gram=gram,
                                            warm_start=args.warm_start)
        totals["T_s_ms"] = results["screened"].total_ms

    primary = results.get("screened") or results["full"]
    payload = {"mode": args.mode,
               "records": [r.to_dict() for r in primary.records],
               "totals": totals}
    _emit(payload, args.out)

    if not all(r.converged for res in results.values() for r in res.records):
        return EXIT_NO_CONVERGENCE
    if args.mode == "both" and not comparison.safety_ok:
        return EXIT_SAFETY
    return EXIT_OK


def cmd_screen_stats(args):
    problem = load_problem(args.manifest)
    weights, schedule, gram = prepare(problem, gamma=args.gamma, k=args.k, ratio=args.ratio)
    result = screened_path(problem, weights, schedule, _config(args),
                           epsilon=args.epsilon, gram=gram)
    keys = ("lambda", "screened_rows", "screened_cols", "kept_dims")
    levels = [r.to_dict() for r in result.records]
    payload = {"lambdas": [{key: d[key] for key in keys} for d in levels]}
    _emit(payload, args.out)
    return EXIT_OK if all(r.converged for r in result.records) else EXIT_NO_CONVERGENCE


def _bench_specs(args):
    if args.spec_file:
        with open(args.spec_file) as fh:
            raw = json.load(fh)
        specs = []
        for entry in raw:
            try:
                fields = dict(entry)
                kind = fields.pop("kind", "gaussian")
                fields.setdefault("seed", args.seed)
                specs.append(ShapeSpec(**fields) if kind == "shape" else GaussianSpec(**fields))
            except (TypeError, ValueError) as err:
                raise ValueError(f"bad bench spec {json.dumps(entry)}: {err}") from None
        return specs
    return [_problem_spec(args)]


def cmd_bench(args):
    specs = _bench_specs(args)
    records = bench(specs, k=args.k, ratio=args.ratio, reps=args.reps,
                    config=_config(args), gamma=args.gamma, epsilon=args.epsilon,
                    warm_start=args.warm_start)
    _emit([r.to_dict() for r in records], args.out)
    if not all(r.converged for r in records):
        return EXIT_NO_CONVERGENCE
    if not all(r.safety_ok for r in records):
        return EXIT_SAFETY
    return EXIT_OK


def cmd_report(args):
    with open(args.records) as fh:
        records = json.load(fh)
    text = report(records, fmt=args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tracereg",
        description="Adaptive nuclear norm trace regression with safe screening.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a synthetic problem to disk")
    _add_problem_flags(gen)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_generate)

    sol = subs.add_parser("solve", help="solve at a single penalty level")
    sol.add_argument("--manifest", required=True)
    group = sol.add_mutually_exclusive_group()
    group.add_argument("--lam", type=float, default=None, help="penalty level")
    group.add_argument("--lambda-ratio", type=float, default=0.5,
                       help="penalty as a fraction of the zero threshold")
    _add_solver_flags(sol)
    sol.add_argument("--out", default=None)
    sol.set_defaults(func=cmd_solve)

    pat = subs.add_parser("path", help="solve along a geometric grid")
    pat.add_argument("--manifest", required=True)
    pat.add_argument("--mode", choices=("full", "screened", "both"), default="both")
    pat.add_argument("--warm-start", action="store_true")
    pat.add_argument("--epsilon", type=float, default=None,
                     help="screening threshold override")
    _add_grid_flags(pat)
    _add_solver_flags(pat)
    pat.add_argument("--out", default=None)
    pat.set_defaults(func=cmd_path)

    ben = subs.add_parser("bench", help="timing comparison, full vs screened")
    ben.add_argument("--spec-file", default=None,
                     help="JSON list of generator specs")
    _add_problem_flags(ben)
    ben.add_argument("--reps", type=int, default=10)
    ben.add_argument("--k", type=int, default=None)
    ben.add_argument("--ratio", type=float, default=0.616)
    ben.add_argument("--epsilon", type=float, default=None)
    ben.add_argument("--warm-start", action="store_true")
    _add_solver_flags(ben)
    ben.add_argument("--out", default=None)
    ben.set_defaults(func=cmd_bench)

    scr = subs.add_parser("screen-stats", help="per-level screening dimensions")
    scr.add_argument("--manifest", required=True)
    scr.add_argument("--epsilon", type=float, default=None)
    _add_grid_flags(scr)
    _add_solver_flags(scr)
    scr.add_argument("--out", default=None)
    scr.set_defaults(func=cmd_screen_stats)

    rep = subs.add_parser("report", help="format bench output")
    rep.add_argument("--records", required=True, help="JSON written by bench")
    rep.add_argument("--format", choices=("json", "csv", "markdown"),
                     default="markdown")
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
