"""Workloads, rounds and metrics of the tracereg lambda-path benchmark.

One run sets the workload's problems up repeatedly, then repeats
identical rounds of operations until the next round would end after the
time asked for. An operation is one lambda level of one path, one single
solve or one CLI command; it fails when the program reports it unconverged,
when a CLI command exits non-zero, or when a check in checks.py rejects its
output. Problem data is fixed per workload, so every round fails the same
operations; the seed sets the order of the operations in a round.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy

import tracereg as tr
import tracereg.cli  # noqa: F401  (loads tr.cli)

import checks
from spans import ATTRS, END, ID, NAME, PARENT, ROUND, START, Tracer, instrumented

# screened and full objectives must agree within this, and the optimal value
# must not fall by more than this from one lambda to the next larger one
SAFETY_RTOL = tr.path.SAFETY_OBJECTIVE_RTOL

# set-ups repeat at least SETUP_MIN_REPS times and for at least SETUP_SECONDS;
# setup_s is their median
SETUP_MIN_REPS = 15
SETUP_SECONDS = 1.0
COLD_RATIO = 0.3      # the cold single solve, at COLD_RATIO * lambda_max
COLD_REPS = 2         # cold solves per problem and round, at shuffled places
ZERO_RATIO = 1.05     # a solve above lambda_max, whose solution is B = 0


@dataclass(frozen=True)
class Workload:
    specs: tuple      # (generator kind, generator arguments) per problem
    k: int            # grid length of both paths
    via_cli: bool     # run solves and paths as CLI commands that read from disk


WORKLOADS = {
    "gauss-15x45-n30": Workload(
        specs=tuple(("gaussian", dict(p=15, q=45, n=30, rank=2, seed=s)) for s in (0, 1, 2)),
        k=20, via_cli=False),
    "cross32-n10": Workload(
        specs=(("shape", dict(name="cross", size=32, n=10, seed=0)),), k=10, via_cli=False),
    "cli-cross32-n100": Workload(
        specs=(("shape", dict(name="cross", size=32, n=100, seed=0)),), k=10, via_cli=True),
}


def environment():
    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"
    return (f"python {sys.version.split()[0]}, numpy {np.__version__} ({blas(np)}), "
            f"scipy {scipy.__version__} ({blas(scipy)}), "
            f"BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS')}, nproc {os.cpu_count()}")


def generate(kind, args):
    if kind == "gaussian":
        return tr.gen_gaussian(tr.GaussianSpec(**args))[0]
    return tr.gen_shape(tr.ShapeSpec(**args))[0]


def generate_argv(kind, args, out):
    argv = ["generate", "--kind", kind, "--out", out]
    for key, value in args.items():
        argv += ["--shape" if key == "name" else f"--{key}", str(value)]
    return argv


@dataclass
class Prepared:
    kind: str
    args: dict
    problem: object
    weights: object
    schedule: object
    gram: object
    ref: checks.Reference = None


class Run:
    """State of one benchmark run: the tally of operations and what the rounds measured."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.workload = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.gaps = []          # relative duality gap of every checked solution
        self.solutions = []     # B of the current round, for the full-SVD timing

    def _reject(self, what, problems):
        self.correct = False
        for problem in problems:
            sys.stderr.write(f"{self.name}: {what}: {problem}\n")

    def tally(self, what, reported_ok, problems):
        """Count one operation. A rejected output the program reported as fine is incorrect."""
        self.attempted += 1
        if reported_ok and not problems:
            return
        self.failed += 1
        if reported_ok:
            self._reject(what, problems)

    def check(self, what, problems):
        """A check of a result that is not itself an operation."""
        if problems:
            self._reject(what, problems)

    def setup(self):
        """Generate and prepare every problem (and write it, for the CLI workload)."""
        prepared = []
        for i, (kind, args) in enumerate(self.workload.specs):
            problem = generate(kind, args)
            weights, schedule, gram = tr.prepare(problem, k=self.workload.k)
            if self.workload.via_cli:
                tr.save_problem(problem, os.path.join(self.workdir, f"setup{i}"))
            prepared.append(Prepared(kind, args, problem, weights, schedule, gram))
        return prepared

    def solution_checks(self, ref, b, lam, reported_objective):
        primal, dual = ref.primal_dual(b, lam)
        self.gaps.append(checks.relative_gap(primal, dual))
        self.solutions.append(b)
        return checks.check_objective(reported_objective, primal) + checks.check_weak_duality(primal, dual)

    def cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = tr.cli.main(argv)
            return code, time.perf_counter() - t0

    def cli_generate(self, pb, out):
        """`tracereg generate`, then the disk round-trip check on what it wrote."""
        code, _ = self.cli(generate_argv(pb.kind, pb.args, out))
        manifest = os.path.join(out, "problem.json")
        problems = []
        if code == 0:
            problems = checks.check_round_trip(pb.problem, tr.load_problem(manifest))
        self.tally("generate", code == 0, problems)
        return manifest

    def library_round(self, i, pb, times):
        lmax = pb.schedule.lambda_max
        paths = {}
        ops = ["generate", "zero", "full", "screened"] + ["cold"] * COLD_REPS
        self.rng.shuffle(ops)
        for op in ops:
            if op == "generate":
                self.cli_generate(pb, os.path.join(self.workdir, f"problem{i}"))
            elif op in ("cold", "zero"):
                lam = (COLD_RATIO if op == "cold" else ZERO_RATIO) * lmax
                t0 = time.perf_counter()
                instance = tr.make_instance(pb.problem, pb.weights, lam)
                sol = tr.solve(instance, cache=tr.precompute(instance))
                if op == "cold":
                    times["solve_cold_s"] += (time.perf_counter() - t0) / COLD_REPS
                problems = self.solution_checks(pb.ref, sol.B, lam, sol.objective)
                problems += (checks.check_nonzero if op == "cold" else checks.check_zero)(pb.ref, sol.B)
                self.tally(f"solve at {lam / lmax:g} lambda_max", sol.converged, problems)
            else:
                t0 = time.perf_counter()
                if op == "full":
                    paths[op] = tr.full_path(pb.problem, pb.weights, pb.schedule,
                                             warm_start=True)
                else:
                    paths[op] = tr.screened_path(pb.problem, pb.weights, pb.schedule,
                                                 gram=pb.gram, warm_start=True)
                times[f"path_{op}_s"] += time.perf_counter() - t0

        problems = {}
        for mode, result in paths.items():
            problems[mode] = [self.solution_checks(pb.ref, r.solution.B, r.lam, r.solution.objective)
                              for r in result.records]
            for m in checks.monotone_violations(result.objectives(), SAFETY_RTOL):
                problems[mode][m].append("objective above that of the next larger lambda")
        for m in checks.disagreements(paths["full"].objectives(), paths["screened"].objectives(),
                                      SAFETY_RTOL):
            problems["screened"][m].append("screened objective differs from the full one")
        for mode, result in paths.items():
            for r, found in zip(result.records, problems[mode]):
                self.tally(f"{mode} path level {r.lam:.6g}", r.converged, found)

    def cli_command(self, argv, target):
        """Run one CLI command that writes JSON to target; returns (exit code, payload, seconds)."""
        code, seconds = self.cli(argv + ["--out", target])
        payload = None
        if os.path.exists(target):
            with open(target) as fh:
                payload = json.load(fh)
            os.remove(target)
        return code, payload, seconds

    def cli_round(self, i, pb, times):
        out = os.path.join(self.workdir, f"problem{i}")
        manifest = self.cli_generate(pb, out)
        ops = ["full", "screened"] + ["solve"] * COLD_REPS
        self.rng.shuffle(ops)
        paths = {}
        for op in ops:
            target = os.path.join(out, f"{op}.json")
            if op == "solve":
                argv = ["solve", "--manifest", manifest, "--lambda-ratio", str(COLD_RATIO)]
                code, payload, seconds = self.cli_command(argv, target)
                times["solve_cold_s"] += seconds / COLD_REPS
                problems = ["no output"]
                if payload:
                    b = np.array(payload["B"])
                    problems = self.solution_checks(pb.ref, b, payload["lambda"], payload["objective"])
                    problems += checks.check_nonzero(pb.ref, b)
                    problems += checks.check_lambda_max(pb.ref, payload["lambda"] / COLD_RATIO)
                self.tally("cli solve", code == 0, problems)
            else:
                argv = ["path", "--manifest", manifest, "--mode", op, "--warm-start",
                        "--k", str(self.workload.k)]
                paths[op] = self.cli_command(argv, target)
                times[f"path_{op}_s"] += paths[op][2]

        objectives, problems = {}, {}
        for mode, (_, payload, _) in paths.items():
            problems[mode] = [] if payload else ["no output"]
            if payload:
                objectives[mode] = [r["objective"] for r in payload["records"]]
                if checks.monotone_violations(objectives[mode], SAFETY_RTOL):
                    problems[mode].append("objective not nondecreasing in lambda")
        if len(objectives) == 2 and checks.disagreements(
                objectives["full"], objectives["screened"], SAFETY_RTOL):
            problems["screened"].append("screened objectives differ from the full ones")
        for mode, (code, _, _) in paths.items():
            self.tally(f"cli path --mode {mode}", code == 0, problems[mode])

    def round(self, prepared):
        """One pass over every problem; returns the summed time of each timed operation."""
        times = defaultdict(float)
        self.solutions = []
        for i, pb in enumerate(prepared):
            (self.cli_round if self.workload.via_cli else self.library_round)(i, pb, times)
        return times


def layer_metrics(tracer, traced_rounds, overhead, gaps):
    """Per-layer figures from the spans of the set-ups and of the traced rounds."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in tracer.spans:
        if s[ROUND] is None or s[ROUND] in traced_rounds:
            by_name[s[NAME]].append(s)
            children[s[PARENT]].append(s)

    def dur(s):
        return (s[END] - s[START]) / 1e9

    def ms(s):
        return dur(s) * 1e3

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children[s[ID]])

    def attr(key):
        return lambda s: s[ATTRS][key]

    def median_of(name, value=dur):
        """Median over the spans of one name."""
        return statistics.median(value(s) for s in by_name[name])

    def per_round(name, value):
        """Median over traced rounds of the per-round sum."""
        sums = dict.fromkeys(traced_rounds, 0.0)
        for s in by_name[name]:
            if s[ROUND] is not None:
                sums[s[ROUND]] += value(s)
        return statistics.median(sums.values())

    solves = by_name["admm.solve"]
    iters = sum(s[ATTRS]["iters"] for s in solves)
    solve_s = sum(dur(s) for s in solves)
    prox_ms = median_of("prox.prox_nuclear", ms)
    return {
        "harness.generate_s": (median_of("harness.generate"), "s"),
        "harness.save_s": (median_of("harness.save"), "s"),
        "harness.load_s": (median_of("harness.load"), "s"),
        "harness.prepare_s": (median_of("harness.prepare"), "s"),
        "model.build_problem_s": (median_of("model.build_problem"), "s"),
        "model.gram_factor_s": (median_of("model.gram_factor"), "s"),
        "model.weights_s": (median_of("model.weights"), "s"),
        "model.lambda_max_s": (median_of("model.lambda_max"), "s"),
        "admm.precompute_ms": (median_of("admm.precompute", ms), "ms"),
        "admm.factor_solve_ms": (median_of("admm.factor_solve", ms), "ms"),
        "admm.iters_full": (per_round("path.full_path", attr("iters")), "count"),
        "admm.iters_screened": (per_round("path.screened_path", attr("iters")), "count"),
        "admm.ms_per_iter": (1e3 * solve_s / iters, "ms"),
        "admm.capped_levels": (per_round("path.full_path", attr("capped"))
                               + per_round("path.screened_path", attr("capped")), "count"),
        "admm.gap_rel_max": (max(gaps), "ratio"),
        "prox.prox_nuclear_ms": (prox_ms, "ms"),
        "prox.svd_full_ms": (median_of("prox.svd_full", ms), "ms"),
        "prox.share_est": (iters * prox_ms / 1e3 / solve_s, "ratio"),
        "screen.screen_s": (median_of("path.screened_path", lambda p: sum(
            dur(c) for c in children[p[ID]] if c[NAME] == "screen.screen")), "s"),
        "screen.kept_frac": (median_of("path.screened_path", attr("kept_frac")), "ratio"),
        "screen.removed_dirs": (per_round("path.screened_path", attr("removed_dirs")), "count"),
        "path.self_full_s": (median_of("path.full_path",
                                       lambda s: dur(s) - s[ATTRS]["records_s"]), "s"),
        "path.self_screened_s": (median_of("path.screened_path",
                                           lambda s: dur(s) - s[ATTRS]["records_s"]), "s"),
        "cli.overhead_s": (per_round("cli.main", self_time), "s"),
        "trace.overhead": (overhead, "ratio"),
    }


def run(name, seed, seconds, trace, out_dir):
    tracer = Tracer() if trace else None

    def instrumented_if(on):
        return instrumented(tracer) if on else contextlib.nullcontext()

    workdir = os.path.join(out_dir, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    bench = Run(name, seed, workdir)
    try:
        start = time.perf_counter()
        setup_s = []
        with instrumented_if(trace):
            while len(setup_s) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_SECONDS:
                t0 = time.perf_counter()
                prepared = bench.setup()
                setup_s.append(time.perf_counter() - t0)
        for pb in prepared:
            pb.ref = checks.Reference(pb.problem.X, pb.problem.y, pb.weights.W1, pb.weights.W2)
            bench.check("lambda_max", checks.check_lambda_max(pb.ref, pb.schedule.lambda_max))

        rounds = []    # (traced, wall seconds, summed operation times)
        while True:
            # a traced run alternates plain and traced rounds, for the tracing overhead
            is_traced = bool(trace) and len(rounds) % 2 == 1
            with instrumented_if(is_traced):
                if is_traced:
                    tracer.round = len(rounds)
                t0 = time.perf_counter()
                times = bench.round(prepared)
                wall = time.perf_counter() - t0
                if is_traced:
                    for b in bench.solutions:
                        with tracer.span("prox.svd_full"):
                            tr.svd(b, full=True)
                    tracer.round = None
            rounds.append((is_traced, wall, times))
            enough = len(rounds) >= (2 if trace else 1)
            if enough and time.perf_counter() - start + wall > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        plain = [w for t, w, _ in rounds if not t]
        traced_walls = [w for t, w, _ in rounds if t]
        overhead = statistics.median(traced_walls) / statistics.median(plain) - 1.0
        metrics = layer_metrics(tracer, {i for i, r in enumerate(rounds) if r[0]}, overhead,
                                bench.gaps)
        trace_path = os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl")
        tracer.write_jsonl(trace_path)
        print(f"{name}: {len(tracer.spans)} spans written to {os.path.relpath(trace_path)}")
    else:
        def over_rounds(key):
            return statistics.median(times[key] for _, _, times in rounds)

        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "solve_cold_s": (over_rounds("solve_cold_s"), "s"),
            "path_full_s": (over_rounds("path_full_s"), "s"),
            "path_screened_s": (over_rounds("path_screened_s"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"{name}: T_f/T_s = {metrics['path_full_s'][0] / metrics['path_screened_s'][0]:.4f}"
              " (derived reference figure, not a metric)")
    for key, (value, unit) in metrics.items():
        print(f"{name}: {key} = {value:.6g} {unit}")
    print(f"{name}: {len(rounds)} rounds, operations attempted {bench.attempted}, "
          f"failed {bench.failed}, correct {bench.correct}")
    return {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
