"""Generators, serialization, the bench loop and report rendering."""

import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import tracereg.harness
from tracereg import (
    SHAPE_CATALOG,
    BenchRecord,
    GaussianSpec,
    ShapeSpec,
    bench,
    build_problem,
    gen_gaussian,
    gen_shape,
    load_problem,
    prepare,
    report,
    save_problem,
    shape_matrix,
)
from tracereg.model import GramFactor


# ------------------------------------------------------------- generators


def test_gaussian_designs_are_rank_one():
    problem, _ = gen_gaussian(GaussianSpec(p=5, q=7, n=6, seed=0))
    for i in range(problem.n):
        assert np.linalg.matrix_rank(problem.X[i]) == 1


def test_gaussian_target_is_unit_norm_low_rank():
    spec = GaussianSpec(p=8, q=9, n=4, rank=2, seed=1)
    _, b_true = gen_gaussian(spec)
    assert np.linalg.norm(b_true) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.matrix_rank(b_true) == spec.rank


def test_gaussian_zero_rank_zero_noise_gives_zero_response():
    problem, b_true = gen_gaussian(GaussianSpec(p=4, q=5, n=6, rank=0, noise_std=0.0))
    np.testing.assert_array_equal(b_true, np.zeros((4, 5)))
    np.testing.assert_array_equal(problem.y, np.zeros(6))


def test_gaussian_zero_noise_responses_exact():
    problem, b_true = gen_gaussian(GaussianSpec(p=4, q=5, n=6, noise_std=0.0, seed=2))
    expected = np.einsum("npq,pq->n", problem.X, b_true)
    np.testing.assert_array_equal(problem.y, expected)


def test_gaussian_noise_mean_clt_bound():
    spec = GaussianSpec(p=3, q=4, n=10000, noise_std=0.1, seed=3)
    problem, b_true = gen_gaussian(spec)
    noise = problem.y - np.einsum("npq,pq->n", problem.X, b_true)
    assert abs(noise.mean()) <= 3.0 * spec.noise_std / np.sqrt(spec.n)
    # n far above pq: the design cannot be full row rank, which only screening needs
    with pytest.warns(UserWarning, match="not numerically full row rank"):
        assert prepare(problem, k=2)[2] is None


def test_generators_are_deterministic():
    spec = GaussianSpec(p=6, q=7, n=8, seed=11)
    pa, ba = gen_gaussian(spec)
    pb, bb = gen_gaussian(spec)
    np.testing.assert_array_equal(pa.X, pb.X)
    np.testing.assert_array_equal(pa.y, pb.y)
    np.testing.assert_array_equal(ba, bb)

    sspec = ShapeSpec(name="ring", n=5, size=32, seed=4)
    qa, ca = gen_shape(sspec)
    qb, cb = gen_shape(sspec)
    np.testing.assert_array_equal(qa.X, qb.X)
    np.testing.assert_array_equal(qa.y, qb.y)
    np.testing.assert_array_equal(ca, cb)


def test_table_dimensions_full_row_rank_on_100_seeds():
    for seed in range(100):
        problem, _ = gen_gaussian(GaussianSpec(p=15, q=45, n=30, seed=seed))
        GramFactor(problem)


# ----------------------------------------------------------------- shapes


def test_shape_catalog_ranks_and_binary_entries():
    for name, (_, rank) in SHAPE_CATALOG.items():
        b = shape_matrix(name)
        assert b.shape == (64, 64)
        assert set(np.unique(b)) <= {0.0, 1.0}
        assert b.sum() > 0
        assert np.linalg.matrix_rank(b) == rank


def test_square_shape_is_contiguous_block():
    b = shape_matrix("square")
    assert np.array_equal(b[16:48, 16:48], np.ones((32, 32)))
    total = b.sum()
    assert total == 32 * 32


def test_shape_matrix_validation():
    with pytest.raises(ValueError, match="unknown shape 'blob'"):
        shape_matrix("blob")
    with pytest.raises(ValueError, match="size must be a multiple of 16"):
        shape_matrix("cross", size=40)


def test_gen_shape_zero_noise_exact():
    problem, b_true = gen_shape(ShapeSpec(name="tee", n=4, size=32, noise_std=0.0))
    expected = np.einsum("npq,pq->n", problem.X, b_true)
    np.testing.assert_array_equal(problem.y, expected)


# ---------------------------------------------------------- serialization


def test_save_load_round_trip_bitwise(tmp_path):
    problem, _ = gen_gaussian(GaussianSpec(p=4, q=6, n=9, seed=5))
    manifest = save_problem(problem, tmp_path, stem="case")
    loaded = load_problem(manifest)
    assert (loaded.n, loaded.p, loaded.q) == (problem.n, problem.p, problem.q)
    np.testing.assert_array_equal(loaded.y, problem.y)
    np.testing.assert_array_equal(loaded.stacked, problem.stacked)
    np.testing.assert_array_equal(loaded.X, problem.X)


def test_load_wide_fixture(tmp_path):
    problem, _ = gen_gaussian(GaussianSpec(p=41, q=30, n=138, seed=6))
    manifest = save_problem(problem, tmp_path)
    loaded = load_problem(manifest)
    assert loaded.stacked.shape == (138, 1230)


def test_load_errors(tmp_path):
    with pytest.raises(ValueError, match="manifest not found"):
        load_problem(tmp_path / "nope.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_problem(bad)

    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([{"n": 2, "p": 2}]))
    with pytest.raises(ValueError, match="is not a JSON object"):
        load_problem(listed)

    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"n": 2, "p": 2}))
    with pytest.raises(ValueError, match="missing keys: q, y, X"):
        load_problem(partial)

    problem, _ = gen_gaussian(GaussianSpec(p=2, q=3, n=4, seed=7))
    manifest = save_problem(problem, tmp_path, stem="edit")
    meta = json.loads((tmp_path / "edit.json").read_text())

    meta_missing = dict(meta, X="gone.csv")
    (tmp_path / "missing.json").write_text(json.dumps(meta_missing))
    with pytest.raises(ValueError, match="data file not found"):
        load_problem(tmp_path / "missing.json")

    meta_short = dict(meta, n=5)
    (tmp_path / "short.json").write_text(json.dumps(meta_short))
    with pytest.raises(ValueError, match="y has 4 rows, manifest says n=5"):
        load_problem(tmp_path / "short.json")


@pytest.mark.parametrize("edit, message", [
    ({"n": None}, "n must be an integer of at least 1, got null"),
    ({"p": "2"}, 'p must be an integer of at least 1, got "2"'),
    ({"q": 3.0}, "q must be an integer of at least 1, got 3.0"),
    ({"n": 0}, "n must be an integer of at least 1, got 0"),
    ({"n": True}, "n must be an integer of at least 1, got true"),
    ({"y": 5}, "y must be a file name, got 5"),
    ({"X": ["a.npy"]}, r'X must be a file name, got \["a.npy"\]'),
], ids=["n-null", "p-string", "q-float", "n-zero", "n-bool", "y-number", "X-list"])
def test_load_refuses_manifest_fields_of_the_wrong_type(tmp_path, edit, message):
    problem, _ = gen_gaussian(GaussianSpec(p=2, q=3, n=4, seed=7))
    meta = json.loads(Path(save_problem(problem, tmp_path)).read_text())
    (tmp_path / "edited.json").write_text(json.dumps(dict(meta, **edit)))
    with pytest.raises(ValueError, match=message):
        load_problem(tmp_path / "edited.json")


def test_load_reports_malformed_cells(tmp_path):
    problem, _ = gen_gaussian(GaussianSpec(p=2, q=2, n=3, seed=8))
    np.savetxt(tmp_path / "cells_y.csv", problem.y, fmt="%.17g")
    x_path = tmp_path / "cells_X.csv"
    np.savetxt(x_path, problem.stacked, fmt="%.17g", delimiter=",")
    manifest = tmp_path / "cells.json"
    manifest.write_text(json.dumps({"n": 3, "p": 2, "q": 2, "y": "cells_y.csv",
                                    "X": "cells_X.csv"}))
    rows = x_path.read_text().strip().split("\n")

    truncated = rows[:1] + [",".join(rows[1].split(",")[:-1])] + rows[2:]
    x_path.write_text("\n".join(truncated) + "\n")
    with pytest.raises(ValueError, match="row 2 has 3 values, expected 4"):
        load_problem(manifest)

    cells = rows[0].split(",")
    cells[1] = "abc"
    x_path.write_text("\n".join([",".join(cells)] + rows[1:]) + "\n")
    with pytest.raises(ValueError, match="non-numeric value 'abc' at row 1, column 2"):
        load_problem(manifest)


def npy_bytes(array):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array)
    return buf.getvalue()


def npy_header_claiming(shape):
    # a float64 header for the given shape, followed by one value
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False,
                                               "shape": shape})
    return buf.getvalue() + bytes(8)


BAD_NPY_CASES = {
    # the data file replaced, its new content, and a phrase of the error after its path
    "empty": ("X", lambda X, y: b"", "not a readable .npy array"),
    "truncated-data": ("X", lambda X, y: npy_bytes(X)[:-8], "not a readable .npy array"),
    "truncated-header": ("y", lambda X, y: npy_bytes(y)[:20], "not a readable .npy array"),
    # more values than memory holds: numpy cannot even allocate the array
    "header-past-memory": ("y", lambda X, y: npy_header_claiming((10**13,)),
                           "not a readable .npy array"),
    "text": ("X", lambda X, y: b"1,2\n3,4\n", "magic string is not correct"),
    "object": ("y", lambda X, y: y.astype(object), "not a readable .npy array"),
    "complex": ("X", lambda X, y: X + 1j, "holds complex128 values"),
    "bool": ("y", lambda X, y: y > 0, "holds bool values"),
    "string": ("y", lambda X, y: y.astype(str), "holds <U"),
    "y-as-column": ("y", lambda X, y: y[:, None], r"shape \(6, 1\), expected a vector"),
    "X-as-vector": ("X", lambda X, y: X.ravel(), r"shape \(72,\), expected a matrix of 12"),
    "X-wrong-columns": ("X", lambda X, y: X[:, :-1], r"shape \(6, 11\), expected a matrix of 12"),
    "X-scalar": ("X", lambda X, y: np.float64(1.0), r"shape \(\), expected a matrix of 12"),
}


@pytest.mark.parametrize("case", BAD_NPY_CASES.values(), ids=BAD_NPY_CASES.keys())
def test_load_refuses_bad_npy_files(tmp_path, case):
    key, content, phrase = case
    problem, _ = gen_gaussian(GaussianSpec(p=3, q=4, n=6, seed=2))
    manifest = save_problem(problem, tmp_path)
    path = tmp_path / f"problem_{key}.npy"
    data = content(problem.stacked, problem.y)
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        np.save(path, data, allow_pickle=True)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{phrase}"):
        load_problem(manifest)


READER_CASES = {
    # a CSV data file, and the rows load_problem reads from it or its error
    "blank-lines": ("1,2\n\n3,4\n", [[1, 2], [3, 4]]),
    "crlf": ("1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
    "spaces-around-cells": (" 1 , 2 \n3 ,\t4\n", [[1, 2], [3, 4]]),
    "nan-inf": ("nan,inf\n-inf,NaN\n", [[np.nan, np.inf], [-np.inf, np.nan]]),
    "signs-and-exponents": ("+1e3,-.5\n1E-3,.5\n", [[1e3, -0.5], [1e-3, 0.5]]),
    "whitespace-only-line": ("1,2\n   \n3,4\n", [[1, 2], [3, 4]]),
    "whitespace-separated": ("1 2\n3 4\n", [[1, 2], [3, 4]]),
    "underscore-digits": ("1_0,2\n3,4\n", [[10, 2], [3, 4]]),
    "hash": ("1,#2\n3,4\n", "edge_X.csv: non-numeric value '#2' at row 1, column 2"),
    "ragged": ("1,2\n3\n", "edge_X.csv: row 2 has 1 values, expected 2"),
    "trailing-comma": ("1,2,\n3,4,\n", "edge_X.csv: row 1 has 3 values, expected 2"),
    "empty": ("", "X has 0 rows, manifest says n=2"),
}


@pytest.mark.parametrize("text, expected", READER_CASES.values(), ids=READER_CASES.keys())
def test_load_matches_the_line_parser(tmp_path, monkeypatch, text, expected):
    # CSV data files are read line by line: these bits, or this error
    (tmp_path / "edge_y.csv").write_text("1\n2\n")
    x_path = tmp_path / "edge_X.csv"
    with open(x_path, "w", newline="") as fh:
        fh.write(text)
    manifest = tmp_path / "edge.json"
    manifest.write_text(json.dumps({"n": 2, "p": 1, "q": 2, "y": "edge_y.csv",
                                    "X": "edge_X.csv"}))
    # take the arrays load_problem passes on; build_problem rejects nan and inf
    monkeypatch.setattr(tracereg.harness, "build_problem", lambda X, y: X)

    if isinstance(expected, str):
        with pytest.raises(ValueError) as caught:
            load_problem(manifest)
        assert str(caught.value).endswith(expected)
        return
    stacked = load_problem(manifest).transpose(0, 2, 1).reshape(2, 2)
    assert stacked.tobytes() == np.array(expected, dtype=float).tobytes()


def test_save_load_round_trip_keeps_extreme_values(tmp_path):
    extremes = [5e-324, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3]
    problem, _ = gen_gaussian(GaussianSpec(p=2, q=3, n=5, seed=4))
    X = problem.X.copy()
    X[0, 0, :] = [5e-324, -0.0, 1 / 3]
    problem = build_problem(X, extremes)
    loaded = load_problem(save_problem(problem, tmp_path))
    assert loaded.y.tobytes() == problem.y.tobytes()
    assert loaded.stacked.tobytes() == problem.stacked.tobytes()


def test_load_reads_saved_files_without_the_line_parser(tmp_path, monkeypatch):
    problem, _ = gen_gaussian(GaussianSpec(p=3, q=4, n=6, seed=2))
    manifest = save_problem(problem, tmp_path)

    def refuse(path, *args, **kwargs):
        raise AssertionError(f"CSV reader called on {path}")

    monkeypatch.setattr(tracereg.harness, "_parse_csv_matrix", refuse)
    loaded = load_problem(manifest)
    np.testing.assert_array_equal(loaded.stacked, problem.stacked)


def test_save_writes_npy_files_named_in_the_manifest(tmp_path):
    problem, _ = gen_gaussian(GaussianSpec(p=3, q=4, n=6, seed=2))
    manifest = json.loads(Path(save_problem(problem, tmp_path, stem="bin")).read_text())
    assert manifest == {"n": 6, "p": 3, "q": 4, "y": "bin_y.npy", "X": "bin_X.npy"}
    assert sorted(f.name for f in tmp_path.iterdir()) == ["bin.json", "bin_X.npy", "bin_y.npy"]
    y, stacked = np.load(tmp_path / "bin_y.npy"), np.load(tmp_path / "bin_X.npy")
    assert (y.dtype, y.shape) == (np.dtype(float), (6,))
    assert (stacked.dtype, stacked.shape) == (np.dtype(float), (6, 12))


def test_load_converts_other_byte_orders_and_integers(tmp_path):
    problem, _ = gen_gaussian(GaussianSpec(p=3, q=4, n=6, seed=2))
    manifest = save_problem(problem, tmp_path)
    np.save(tmp_path / "problem_y.npy", problem.y.astype(">f8"))
    np.save(tmp_path / "problem_X.npy", problem.stacked.astype(">f8"))
    loaded = load_problem(manifest)
    assert loaded.y.dtype == loaded.stacked.dtype == np.dtype(float)
    assert loaded.y.tobytes() == problem.y.tobytes()
    assert loaded.stacked.tobytes() == problem.stacked.tobytes()
    assert loaded.X.tobytes() == problem.X.tobytes()

    counts = np.arange(6, dtype=">i4")
    np.save(tmp_path / "problem_y.npy", counts)
    np.testing.assert_array_equal(load_problem(manifest).y, counts.astype(float))


# ------------------------------------------------------------- bench loop


def test_bench_single_rep_record():
    records = bench([GaussianSpec(p=3, q=4, n=6, seed=9)], k=2, reps=1)
    assert len(records) == 1
    rec = records[0]
    assert rec.label == "(3, 4)"
    assert (rec.p, rec.q, rec.n, rec.k, rec.reps) == (3, 4, 6, 2, 1)
    assert rec.safety_ok and rec.converged
    assert rec.speedups[0] == rec.t_full_ms[0] / rec.t_screened_ms[0]
    d = rec.to_dict()
    assert d["t_full_ms_var"] == 0.0
    assert d["speedup_var"] == 0.0
    assert len(d["per_lambda"]) == 2
    entry = d["per_lambda"][0]
    assert set(entry) == {"lambda", "screened_rows", "screened_cols",
                          "kept_dims", "iters"}


def test_bench_multiple_reps_and_seeds():
    base = GaussianSpec(p=3, q=4, n=6, seed=10)
    other = GaussianSpec(p=3, q=4, n=6, seed=99)
    records = bench([base, other], k=2, reps=2)
    assert len(records) == 2
    for rec in records:
        assert len(rec.t_full_ms) == 2
        assert rec.safety_ok and rec.converged
        assert rec.to_dict()["t_full_ms_var"] >= 0.0
    assert records[0].label == records[1].label
    assert records[0].t_full_ms != records[1].t_full_ms


def test_bench_shape_spec_defaults_to_shorter_grid():
    records = bench([ShapeSpec(name="square", n=4, size=16, seed=1)], reps=1)
    assert records[0].k == 10
    assert records[0].label == "square"


# ---------------------------------------------------------------- reports


def fake_record(label, n, tf, ts):
    return BenchRecord(
        label=label, p=15, q=45, n=n, k=20, ratio=0.616, reps=2,
        t_full_ms=(tf, tf), t_screened_ms=(ts, ts),
        speedups=(tf / ts, tf / ts), safety_ok=True, converged=True,
    )


def test_report_json_and_csv_agree():
    records = [fake_record("(15, 45)", 30, 1500.0, 500.0)]
    parsed = json.loads(report(records, fmt="json"))
    assert len(parsed) == 1
    row = parsed[0]

    import csv
    import io

    reader = csv.reader(io.StringIO(report(records, fmt="csv")))
    cols, vals = list(reader)
    got = dict(zip(cols, vals))
    assert got["label"] == "(15, 45)"
    assert float(got["t_full_ms_mean"]) == row["t_full_ms_mean"]
    assert float(got["speedup_mean"]) == row["speedup_mean"]
    assert got["safety_ok"] == str(row["safety_ok"])
    assert row["speedup_mean"] == pytest.approx(3.0)
    assert row["speedup_var"] == 0.0


def test_report_markdown_groups_repeated_labels():
    records = [
        fake_record("(15, 45)", 30, 1500.0, 500.0),
        fake_record("(15, 45)", 60, 1800.0, 700.0),
        fake_record("(25, 30)", 30, 900.0, 450.0),
    ]
    text = report(records, fmt="markdown")
    lines = text.strip().split("\n")
    assert lines[0].startswith("| dimension | n |")
    assert len(lines) == 5
    assert lines[2].startswith("| (15, 45) | 30 |")
    assert lines[3].startswith("|  | 60 |")
    assert lines[4].startswith("| (25, 30) | 30 |")


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_report_refuses_malformed_records(fmt):
    good = fake_record("(3, 4)", 6, 10.0, 5.0)
    with pytest.raises(ValueError, match="bench record 1 has no 't_full_ms_mean'"):
        report([good, {k: v for k, v in good.to_dict().items() if k != "t_full_ms_mean"}],
               fmt=fmt)
    with pytest.raises(ValueError, match="bench record 0 has no 'label'"):
        report(["(3, 4)"], fmt=fmt)
    with pytest.raises(ValueError, match="bench records must be a list, got dict"):
        report(good.to_dict(), fmt=fmt)


def test_report_unknown_format():
    with pytest.raises(ValueError, match="unknown report format 'tex'"):
        report([fake_record("(3, 4)", 6, 10.0, 5.0)], fmt="tex")
