"""Synthetic data, problem serialization, benchmark and report helpers."""

from __future__ import annotations

import csv
import io
import json
import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .admm import AdmmConfig
from .model import build_problem, lambda_max, min_norm_least_squares, GramFactor, compute_weights
from .path import LambdaSchedule, compare


@dataclass(frozen=True)
class GaussianSpec:
    """Rank-one random designs X_i = P_i Q_i^T with a low-rank target."""

    p: int
    q: int
    n: int
    rank: int = 2
    noise_std: float = 0.1
    seed: int = 0


def gen_gaussian(spec):
    """Generate (problem, b_true) from a GaussianSpec.

    The target is a product of Gaussian factors normalized to unit
    Frobenius norm; responses are <X_i, B> plus N(0, noise_std^2) noise.
    """
    rng = np.random.default_rng(spec.seed)
    pvecs = rng.standard_normal((spec.n, spec.p))
    qvecs = rng.standard_normal((spec.n, spec.q))
    X = np.einsum("np,nq->npq", pvecs, qvecs)

    a1 = rng.standard_normal((spec.p, spec.rank))
    a2 = rng.standard_normal((spec.q, spec.rank))
    b_true = a1 @ a2.T
    norm = np.linalg.norm(b_true)
    if norm > 0:
        b_true /= norm

    y = np.einsum("npq,pq->n", X, b_true) + spec.noise_std * rng.standard_normal(spec.n)
    return build_problem(X, y), b_true


def _band(size, start, stop):
    v = np.zeros(size)
    v[start:stop] = 1.0
    return v


def _ones(size):
    return np.ones(size)


def _block(size, r0, r1, c0, c1):
    return np.outer(_band(size, r0, r1), _band(size, c0, c1))


def _shape_cross(s):
    a, b = 7 * s // 16, 9 * s // 16
    return np.maximum(_block(s, a, b, 0, s), _block(s, 0, s, a, b))


def _shape_square(s):
    return _block(s, s // 4, 3 * s // 4, s // 4, 3 * s // 4)


def _shape_tee(s):
    bar = _block(s, s // 8, s // 4, 0, s)
    stem = _block(s, s // 8, 7 * s // 8, 7 * s // 16, 9 * s // 16)
    return np.maximum(bar, stem)


def _shape_ell(s):
    side = _block(s, s // 8, 7 * s // 8, s // 8, s // 4)
    foot = _block(s, 3 * s // 4, 7 * s // 8, s // 8, 7 * s // 8)
    return np.maximum(side, foot)


def _shape_ring(s):
    return _block(s, s // 8, 7 * s // 8, s // 8, 7 * s // 8) - _block(
        s, 5 * s // 16, 11 * s // 16, 5 * s // 16, 11 * s // 16
    )


def _shape_bars(s):
    out = np.zeros((s, s))
    for r0 in (s // 8, 7 * s // 16, 3 * s // 4):
        out += _block(s, r0, r0 + s // 8, 0, s)
    return np.minimum(out, 1.0)


def _shape_checker(s):
    cell = np.indices((8, 8)).sum(axis=0) % 2
    return np.kron(cell, np.ones((s // 8, s // 8)))


def _shape_frame(s):
    return np.outer(_ones(s), _ones(s)) - _block(s, s // 8, 7 * s // 8, s // 8, 7 * s // 8)


def _shape_diag(s):
    return np.kron(np.eye(8), np.ones((s // 8, s // 8)))


def _shape_dot_grid(s):
    comb = np.zeros(s)
    comb[(np.arange(s) % (s // 8)) < s // 16] = 1.0
    return np.outer(comb, comb)


# name -> (builder, rank of the 64 x 64 pattern)
SHAPE_CATALOG = {
    "cross": (_shape_cross, 2),
    "square": (_shape_square, 1),
    "tee": (_shape_tee, 2),
    "ell": (_shape_ell, 2),
    "ring": (_shape_ring, 2),
    "bars": (_shape_bars, 1),
    "checker": (_shape_checker, 2),
    "frame": (_shape_frame, 2),
    "diag": (_shape_diag, 8),
    "dot-grid": (_shape_dot_grid, 1),
}


def shape_matrix(name, size=64):
    """Binary {0,1} target for a catalog shape, at any multiple-of-16 size."""
    try:
        builder, _ = SHAPE_CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown shape {name!r}; catalog: {', '.join(sorted(SHAPE_CATALOG))}"
        ) from None
    if size % 16 != 0:
        raise ValueError(f"size must be a multiple of 16, got {size}")
    return builder(size)


@dataclass(frozen=True)
class ShapeSpec:
    """Dense Gaussian designs against a binary shape target."""

    name: str
    n: int
    size: int = 64
    noise_std: float = 0.1
    seed: int = 0


def gen_shape(spec):
    """Generate (problem, b_true) from a ShapeSpec."""
    b_true = shape_matrix(spec.name, spec.size)
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n, spec.size, spec.size))
    y = np.einsum("npq,pq->n", X, b_true) + spec.noise_std * rng.standard_normal(spec.n)
    return build_problem(X, y), b_true


def save_problem(problem, out_dir, stem="problem"):
    """Write manifest JSON plus y/X .npy files; returns the manifest path.

    The files hold y (shape (n,)) and the stacked n x pq design as float64
    in numpy's binary format, so loading reproduces the arrays bit for bit.
    """
    os.makedirs(out_dir, exist_ok=True)
    y_name, x_name = f"{stem}_y.npy", f"{stem}_X.npy"
    np.save(os.path.join(out_dir, y_name), problem.y, allow_pickle=False)
    np.save(os.path.join(out_dir, x_name), problem.stacked, allow_pickle=False)
    manifest = {
        "n": problem.n, "p": problem.p, "q": problem.q,
        "y": y_name, "X": x_name,
    }
    path = os.path.join(out_dir, f"{stem}.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _parse_csv_matrix(path, expect_cols):
    """One CSV (or whitespace-separated) data file as a matrix of expect_cols columns.

    Blank lines are skipped; a malformed row fails naming its row and column.
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",") if "," in line else line.split()
            if len(cells) != expect_cols:
                raise ValueError(
                    f"{path}: row {lineno} has {len(cells)} values, expected {expect_cols}"
                )
            parsed = []
            for col, cell in enumerate(cells, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {cell!r} at row {lineno}, column {col}"
                    ) from None
            rows.append(parsed)
    return np.array(rows, dtype=float)


def _read_npy(path, cols):
    """One .npy data file as native float64: a vector if cols is None, else cols columns.

    The file goes to the .npy reader np.load calls, not to np.load, which
    raises EOFError on an empty file and calls a text file pickled data.
    Real integer and float arrays of either byte order are converted; any
    other array, and one of another shape, is refused with a message
    naming the file.
    """
    with open(path, "rb") as fh:
        try:
            data = np.lib.format.read_array(fh, allow_pickle=False)
        except (ValueError, MemoryError) as err:  # a header's shape may not fit in memory
            raise ValueError(f"{path}: not a readable .npy array: {err}") from None
    if data.dtype.kind not in "iuf":
        raise ValueError(f"{path}: holds {data.dtype} values, expected real numbers")
    tail = () if cols is None else (cols,)
    if data.ndim != 1 + len(tail) or data.shape[1:] != tail:
        expected = "a vector" if cols is None else f"a matrix of {cols} columns"
        raise ValueError(f"{path}: array of shape {data.shape}, expected {expected}")
    return data.astype(np.float64, copy=False)


def load_problem(manifest_path):
    """Load a problem from a manifest written by save_problem.

    Each data file is read by its suffix: a .npy file by numpy's binary
    reader, which save_problem writes; any other file as CSV, line by line,
    so hand-written and older CSV problem directories still load and a
    malformed one fails with the row and column of its first bad value.
    """
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"manifest not found: {manifest_path}") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"manifest {manifest_path} is not valid JSON: {err}") from None

    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {manifest_path} is not a JSON object")
    missing = [k for k in ("n", "p", "q", "y", "X") if k not in manifest]
    if missing:
        raise ValueError(f"manifest {manifest_path} missing keys: {', '.join(missing)}")
    for key in ("n", "p", "q"):
        value = manifest[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"manifest {manifest_path}: {key} must be an integer of "
                             f"at least 1, got {json.dumps(value)}")
    for key in ("y", "X"):
        if not isinstance(manifest[key], str):
            raise ValueError(f"manifest {manifest_path}: {key} must be a file name, "
                             f"got {json.dumps(manifest[key])}")
    n, p, q = manifest["n"], manifest["p"], manifest["q"]
    base = os.path.dirname(os.path.abspath(manifest_path))

    def read(name, cols):
        path = name if os.path.isabs(name) else os.path.join(base, name)
        if not os.path.exists(path):
            raise ValueError(f"data file not found: {path}")
        if path.endswith(".npy"):
            return _read_npy(path, cols)
        return _parse_csv_matrix(path, 1 if cols is None else cols)

    y = read(manifest["y"], None).reshape(-1)
    if y.shape[0] != n:
        raise ValueError(f"y has {y.shape[0]} rows, manifest says n={n}")
    stacked = read(manifest["X"], p * q)
    if stacked.shape[0] != n:
        raise ValueError(f"X has {stacked.shape[0]} rows, manifest says n={n}")
    X = stacked.reshape(n, q, p).transpose(0, 2, 1)
    return build_problem(X, y)


@dataclass(frozen=True)
class BenchRecord:
    """Aggregated full-vs-screened comparison for one spec."""

    label: str
    p: int
    q: int
    n: int
    k: int
    ratio: float
    reps: int
    t_full_ms: tuple
    t_screened_ms: tuple
    speedups: tuple
    safety_ok: bool
    converged: bool
    per_lambda: tuple = field(default_factory=tuple)

    def _stats(self, values):
        arr = np.asarray(values)
        var = float(np.var(arr, ddof=1)) if arr.size > 1 else 0.0
        return float(np.mean(arr)), var

    def to_dict(self):
        tf_mean, tf_var = self._stats(self.t_full_ms)
        ts_mean, ts_var = self._stats(self.t_screened_ms)
        sp_mean, sp_var = self._stats(self.speedups)
        return {
            "label": self.label,
            "p": self.p, "q": self.q, "n": self.n,
            "k": self.k, "ratio": self.ratio, "reps": self.reps,
            "t_full_ms_mean": tf_mean, "t_full_ms_var": tf_var,
            "t_screened_ms_mean": ts_mean, "t_screened_ms_var": ts_var,
            "speedup_mean": sp_mean, "speedup_var": sp_var,
            "safety_ok": self.safety_ok,
            "converged": self.converged,
            "per_lambda": list(self.per_lambda),
        }


def prepare(problem, gamma=1.0, k=20, ratio=0.616):
    """Weights, schedule and Gram factor for a problem; shared preprocessing.

    The Gram factor is None, with a warning, when GramFactor refuses the
    design as not numerically full row rank (n > pq among others); the
    weights then come from lstsq's fit, and only the full path runs.
    """
    try:
        gram = GramFactor(problem)
    except np.linalg.LinAlgError as err:
        warnings.warn(f"{err}; screening is disabled", stacklevel=2)
        gram = None
    weights = compute_weights(min_norm_least_squares(problem, gram), gamma, problem.n)
    lmax = lambda_max(problem, weights)
    return weights, LambdaSchedule(lambda_max=lmax, k=k, ratio=ratio), gram


def bench(specs, k=None, ratio=0.616, reps=10, config=None, gamma=1.0, epsilon=None,
          warm_start=False):
    """Timing comparison over specs; one fresh dataset per repetition.

    Each repetition re-generates data with seed + rep so the reported
    mean/variance covers sampling noise, matching the usual protocol.
    Safety violations are flagged in the record, never dropped.
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    config = config or AdmmConfig()
    records = []
    for spec in specs:
        is_shape = isinstance(spec, ShapeSpec)
        k_spec = k if k is not None else (10 if is_shape else 20)
        t_full, t_screened, speedups = [], [], []
        safety_ok = converged = True
        last = None
        for rep in range(reps):
            seeded = replace(spec, seed=spec.seed + rep)
            problem, _ = gen_shape(seeded) if is_shape else gen_gaussian(seeded)
            weights, schedule, gram = prepare(problem, gamma=gamma, k=k_spec, ratio=ratio)
            result = compare(problem, weights, schedule, config, epsilon=epsilon,
                             warm_start=warm_start, gram=gram)
            t_full.append(result.t_full_ms[0])
            t_screened.append(result.t_screened_ms[0])
            speedups.append(result.speedups[0])
            safety_ok = safety_ok and result.safety_ok
            converged = converged and result.converged
            last = result
        keys = ("lambda", "screened_rows", "screened_cols", "kept_dims", "iters")
        levels = [r.to_dict() for r in last.screened.records]
        per_lambda = tuple({key: d[key] for key in keys} for d in levels)
        label = spec.name if is_shape else f"({spec.p}, {spec.q})"
        records.append(
            BenchRecord(
                label=label,
                p=problem.p, q=problem.q, n=problem.n,
                k=k_spec, ratio=ratio, reps=reps,
                t_full_ms=tuple(t_full),
                t_screened_ms=tuple(t_screened),
                speedups=tuple(speedups),
                safety_ok=safety_ok,
                converged=converged,
                per_lambda=per_lambda,
            )
        )
    return records


# the keys of a bench record that reports read, in csv column order
REPORT_COLUMNS = (
    "label", "p", "q", "n", "k", "reps",
    "t_full_ms_mean", "t_full_ms_var",
    "t_screened_ms_mean", "t_screened_ms_var",
    "speedup_mean", "speedup_var", "safety_ok", "converged",
)


def report(records, fmt="markdown"):
    """Render bench records, a list of BenchRecords or of their to_dict()
    forms holding REPORT_COLUMNS, as json, csv or a grouped markdown table."""
    if not isinstance(records, (list, tuple)):
        raise ValueError(f"bench records must be a list, got {type(records).__name__}")
    dicts = [r.to_dict() if isinstance(r, BenchRecord) else r for r in records]
    for i, d in enumerate(dicts):
        missing = [c for c in REPORT_COLUMNS if not isinstance(d, dict) or c not in d]
        if missing:
            raise ValueError(f"bench record {i} has no {missing[0]!r}")
    if fmt == "json":
        return json.dumps(dicts, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for d in dicts:
            writer.writerow([d[c] for c in REPORT_COLUMNS])
        return buf.getvalue()
    if fmt == "markdown":
        lines = [
            "| dimension | n | T_f (s) | T_s (s) | speedup |",
            "| --- | --- | --- | --- | --- |",
        ]
        prev_label = None
        for d in dicts:
            label = d["label"] if d["label"] != prev_label else ""
            prev_label = d["label"]
            tf = f"{d['t_full_ms_mean'] / 1e3:.3f} ({d['t_full_ms_var'] / 1e6:.3f})"
            ts = f"{d['t_screened_ms_mean'] / 1e3:.3f} ({d['t_screened_ms_var'] / 1e6:.3f})"
            sp = f"{d['speedup_mean']:.3f} ({d['speedup_var']:.3f})"
            lines.append(f"| {label} | {d['n']} | {tf} | {ts} | {sp} |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}; use json, csv or markdown")
