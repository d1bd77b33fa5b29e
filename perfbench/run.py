#!/usr/bin/env python3
"""Benchmark of tracereg's warm-started lambda path, end to end and per layer.

    python3 perfbench/run.py --workload gauss-15x45-n30 --seed 1 --seconds 30 --trace 0

--workload all (the default) runs every workload, each in its own process.
--trace 0 prints the end-to-end metrics; --trace 1 runs plain and traced
rounds in turn, prints the per-layer metrics and the tracing overhead, and
writes the spans to perfbench/out/trace-<workload>-seed<seed>.jsonl. The
last line of standard output is one JSON object with the result. The package
is imported from the src/ directory next to this one, never from elsewhere.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# One BLAS thread: a probe saw no gain from two at these matrix sizes, and one
# thread keeps runs on a shared two-core machine comparable.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(names, args):
    results = {}
    for name in names:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            sys.stderr.write(f"error: workload {name} exited {child.returncode}\n")
            return child.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tracereg", "__init__.py")):
        sys.stderr.write(f"error: no tracereg package under {SRC}\n")
        return 2
    # BLAS reads its thread count once, when numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import bench

    if args.workload == "all":
        return run_all(list(bench.WORKLOADS), args)
    if args.workload not in bench.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(bench.WORKLOADS)} or all\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    print(f"{args.workload}: {bench.environment()}")
    result = bench.run(args.workload, args.seed, args.seconds, args.trace, OUT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
