"""In-memory spans around the calls from one tracereg module into another.

The benchmark does not change the package. For a traced round it replaces,
in every tracereg module that holds them, the names listed in FUNCTIONS and
the methods listed in METHODS by wrappers that record a span: name, start,
end, parent span, the benchmark round it belongs to and, for a few calls,
counts read from the returned value. `instrumented` puts the originals back
when it exits, so untraced rounds in the same process run the plain code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

MODULES = ("model", "prox", "admm", "screen", "path", "harness", "cli")

# fields of one span; spans are kept as lists in this order
ID, PARENT, NAME, START, END, ROUND, ATTRS = range(7)


def _solve_attrs(solution):
    return {"iters": solution.iters}


def _path_attrs(result):
    records = result.records
    full_dims = records[0].kept_dims[0] * records[0].kept_dims[1]
    return {
        "records_s": sum(r.solve_time_ms + r.screen_time_ms for r in records) / 1e3,
        "iters": sum(r.iters for r in records),
        "capped": sum(not r.converged for r in records),
        "kept_frac": sum(r.kept_dims[0] * r.kept_dims[1] for r in records)
        / (full_dims * len(records)),
        "removed_dirs": sum(r.screened_rows + r.screened_cols for r in records),
    }


# (defining module, name, span name, counts taken from the returned value)
FUNCTIONS = (
    ("harness", "gen_gaussian", "harness.generate", None),
    ("harness", "gen_shape", "harness.generate", None),
    ("harness", "save_problem", "harness.save", None),
    ("harness", "load_problem", "harness.load", None),
    ("harness", "prepare", "harness.prepare", None),
    ("model", "build_problem", "model.build_problem", None),
    ("model", "compute_weights", "model.weights", None),
    ("model", "lambda_max", "model.lambda_max", None),
    ("admm", "precompute", "admm.precompute", None),
    ("admm", "solve", "admm.solve", _solve_attrs),
    ("prox", "prox_nuclear", "prox.prox_nuclear", None),
    ("screen", "screen", "screen.screen", None),
    ("path", "full_path", "path.full_path", _path_attrs),
    ("path", "screened_path", "path.screened_path", _path_attrs),
    ("cli", "main", "cli.main", None),
)

# (defining module, class, method, span name)
METHODS = (
    ("model", "GramFactor", "__init__", "model.gram_factor"),
    ("admm", "FactorCache", "solve", "admm.factor_solve"),
)


class Tracer:
    """Collects spans in memory; `round` tags every span opened after it is set."""

    def __init__(self):
        self.spans = []
        self.round = None
        self._stack = []

    def _open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, time.perf_counter_ns(), None, self.round, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def _close(self, span):
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[ATTRS] = attrs(result)
            return result
        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, rnd, attrs in self.spans:
                row = {"id": sid, "parent": parent, "name": name,
                       "start_ns": start, "end_ns": end, "round": rnd}
                row.update(attrs or {})
                fh.write(json.dumps(row) + "\n")


@contextlib.contextmanager
def instrumented(tracer):
    """Route every cross-module call listed above through `tracer`."""
    package = importlib.import_module("tracereg")
    modules = [package] + [importlib.import_module(f"tracereg.{m}") for m in MODULES]
    saved = []
    try:
        for home, attr, name, attrs in FUNCTIONS:
            original = getattr(importlib.import_module(f"tracereg.{home}"), attr)
            traced = tracer.wrap(original, name, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, value))
                        setattr(module, key, traced)
        for home, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(f"tracereg.{home}"), cls_name)
            original = cls.__dict__[method]
            saved.append((cls, method, original))
            setattr(cls, method, tracer.wrap(original, name))
        yield tracer
    finally:
        for owner, key, value in reversed(saved):
            setattr(owner, key, value)
