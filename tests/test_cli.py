"""Command line behaviour end to end: files in, JSON out, exit codes."""

import csv
import dataclasses
import io
import json
import subprocess
import sys

import numpy as np
import pytest

import tracereg.cli
import tracereg.model
import tracereg.path
from tracereg import load_problem, save_problem
from tracereg.cli import (
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_SAFETY,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def generate(capsys, out_dir, *extra):
    argv = ["generate", "--p", "4", "--q", "5", "--n", "8", "--seed", "3",
            "--out", str(out_dir)]
    code, out, _ = run_cli(capsys, *argv, *extra)
    assert code == EXIT_OK
    return out.strip()


def test_generate_writes_problem_files(tmp_path, capsys):
    manifest = generate(capsys, tmp_path)
    assert manifest == str(tmp_path / "problem.json")
    for name in ("problem.json", "problem_y.npy", "problem_X.npy", "problem_y.csv",
                 "problem_X.csv", "b_true.csv", "meta.json"):
        assert (tmp_path / name).exists()
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["kind"] == "gaussian"
    assert meta["seed"] == 3
    assert meta["manifest"] == manifest


def test_generate_shape_kind(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--kind", "shape", "--shape", "square",
        "--size", "16", "--n", "5", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    rows = (tmp_path / "b_true.csv").read_text().strip().split("\n")
    assert len(rows) == 16
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["kind"] == "shape"
    assert meta["name"] == "square"


def test_generate_unknown_shape_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "generate", "--kind", "shape", "--shape", "blob",
        "--out", str(tmp_path),
    )
    assert code == EXIT_INPUT
    assert err.startswith("error:")


def test_generate_is_deterministic_on_disk(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    generate(capsys, a)
    generate(capsys, b)
    for name in ("problem.json", "problem_y.csv", "problem_X.csv", "b_true.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def strip_times(payload):
    """A command's payload without its wall-clock fields."""
    if isinstance(payload, dict):
        return {k: strip_times(v) for k, v in payload.items()
                if not k.endswith("_ms") and k != "speedup"}
    if isinstance(payload, list):
        return [strip_times(v) for v in payload]
    return payload


def test_csv_manifest_of_the_text_copies_gives_the_same_results(tmp_path, capsys):
    # a manifest in the older layout, naming the CSV copies generate writes,
    # loads the same bits and gives the same results as the .npy manifest
    manifest = generate(capsys, tmp_path)
    old = tmp_path / "old.json"
    layout = json.loads((tmp_path / "problem.json").read_text())
    old.write_text(json.dumps(dict(layout, y="problem_y.csv", X="problem_X.csv")))
    npy_problem, csv_problem = load_problem(manifest), load_problem(old)
    for name in ("y", "stacked", "X"):
        assert getattr(csv_problem, name).tobytes() == getattr(npy_problem, name).tobytes()

    for argv in (["solve"], ["path", "--mode", "both", "--k", "3"]):
        payloads = []
        for path in (manifest, old):
            code, out, _ = run_cli(capsys, *argv, "--manifest", str(path))
            assert code == EXIT_OK
            payloads.append(strip_times(json.loads(out)))
        assert payloads[0] == payloads[1]


@pytest.mark.parametrize("content", [b"", b"1,2\n3,4\n"], ids=["empty", "text"])
def test_solve_bad_npy_file_is_input_error(tmp_path, capsys, content):
    manifest = generate(capsys, tmp_path)
    (tmp_path / "problem_X.npy").write_bytes(content)
    code, out, err = run_cli(capsys, "solve", "--manifest", manifest)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: {tmp_path / 'problem_X.npy'}: not a readable .npy array")


def test_solve_payload(tmp_path, capsys):
    manifest = generate(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "solve", "--manifest", manifest)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {
        "lambda", "objective", "rank", "iters", "converged", "gap", "dual_kind",
        "time_ms", "primal_residual", "dual_residual", "B",
    }
    assert payload["converged"] is True
    assert payload["dual_kind"] in ("radial", "face")
    # primal_residual is the relative duality gap, dual_residual the
    # relative dual infeasibility; both certify convergence at --tol
    assert payload["primal_residual"] == payload["gap"] <= 1e-6
    assert 0.0 <= payload["dual_residual"] <= 1e-6
    assert payload["objective"] > 0
    b = payload["B"]
    assert len(b) == 4 and len(b[0]) == 5


def test_solve_explicit_lambda(tmp_path, capsys):
    manifest = generate(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "solve", "--manifest", manifest,
                           "--lam", "0.05")
    assert code == EXIT_OK
    assert json.loads(out)["lambda"] == 0.05


def test_solve_exit_on_iteration_cap(tmp_path, capsys):
    manifest = generate(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "solve", "--manifest", manifest,
                           "--max-iter", "2")
    assert code == EXIT_NO_CONVERGENCE
    assert json.loads(out)["converged"] is False


def test_solve_missing_manifest(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", "--manifest",
                           str(tmp_path / "nope.json"))
    assert code == EXIT_INPUT
    assert err.startswith("error:")


def test_solve_records_match_across_runs(tmp_path, capsys):
    manifest = generate(capsys, tmp_path)
    payloads = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code, _, _ = run_cli(capsys, "solve", "--manifest", manifest,
                             "--out", str(out))
        assert code == EXIT_OK
        payloads.append(json.loads(out.read_text()))
    for payload in payloads:
        del payload["time_ms"]  # wall clock is the one non-deterministic field
    assert payloads[0] == payloads[1]


def test_path_both_modes(tmp_path, capsys):
    manifest = generate(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "path", "--manifest", manifest, "--k", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["mode"] == "both"
    assert len(payload["records"]) == 3
    assert set(payload["totals"]) == {
        "T_f_ms", "T_s_ms", "speedup", "objective_mismatch",
    }
    assert payload["totals"]["objective_mismatch"] <= 1e-6
    rec = payload["records"][0]
    assert set(rec) == {
        "lambda", "objective", "rank", "iters", "backtracks", "converged", "gap",
        "dual_kind", "time_ms", "screen_time_ms", "screened_rows", "screened_cols",
        "kept_dims",
    }
    assert all(r["gap"] <= 1e-6 for r in payload["records"])
    assert all(r["dual_kind"] in ("radial", "face") for r in payload["records"])


def test_path_single_mode_totals(tmp_path, capsys):
    manifest = generate(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "path", "--manifest", manifest,
                           "--k", "2", "--mode", "full")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload["totals"]) == {"T_f_ms"}

    code, out, _ = run_cli(capsys, "path", "--manifest", manifest,
                           "--k", "2", "--mode", "screened", "--warm-start")
    assert code == EXIT_OK
    assert set(json.loads(out)["totals"]) == {"T_s_ms"}


@pytest.mark.filterwarnings("ignore:stacked design is not numerically full row rank")
def test_path_full_mode_with_more_samples_than_entries(tmp_path, capsys):
    # n = 400 > pq = 150: the Gram matrix is singular, the pilot is the
    # least-squares fit, and only screening needs full row rank
    code, out, _ = run_cli(capsys, "generate", "--p", "10", "--q", "15",
                           "--n", "400", "--out", str(tmp_path))
    assert code == EXIT_OK
    manifest = out.strip()
    code, out, _ = run_cli(capsys, "path", "--manifest", manifest,
                           "--mode", "full", "--k", "5")
    assert code == EXIT_OK
    records = json.loads(out)["records"]
    assert len(records) == 5 and all(r["converged"] for r in records)

    code, out, _ = run_cli(capsys, "solve", "--manifest", manifest)
    assert code == EXIT_OK
    assert json.loads(out)["converged"] is True

    code, _, err = run_cli(capsys, "path", "--manifest", manifest,
                           "--mode", "screened", "--k", "5")
    assert code == EXIT_INPUT
    assert "full row rank" in err


@pytest.mark.filterwarnings("ignore:stacked design is not numerically full row rank")
def test_path_both_modes_fail_fast_without_full_row_rank(tmp_path, capsys, monkeypatch):
    # the screened half cannot run on n = 400 > pq = 150, so the command
    # must stop before it spends any time on the full half
    code, out, _ = run_cli(capsys, "generate", "--p", "10", "--q", "15",
                           "--n", "400", "--out", str(tmp_path))
    assert code == EXIT_OK
    manifest = out.strip()
    calls = []
    for name in ("tracereg.cli.full_path", "tracereg.path.full_path"):
        monkeypatch.setattr(name, lambda *a, **k: calls.append(a))
    code, out, err = run_cli(capsys, "path", "--manifest", manifest,
                             "--mode", "both", "--k", "5")
    assert code == EXIT_INPUT
    assert out == ""
    assert "full row rank" in err and "--mode full" in err
    assert calls == []


@pytest.mark.filterwarnings("ignore:stacked design is not numerically full row rank")
@pytest.mark.parametrize("seed", [0, 1])
def test_ill_conditioned_design_solves_but_refuses_screening(tmp_path, capsys, monkeypatch,
                                                             conditioned_design, seed):
    # stacked singular values down to 1e-9 of the largest: X X^T is far
    # below GRAM_RCOND (on seed 1 it has no Cholesky factor at all), yet
    # the solver needs no Gram and the pilot is the least-squares fit
    manifest = save_problem(conditioned_design(1e-9, seed), tmp_path)
    code, out, _ = run_cli(capsys, "solve", "--manifest", manifest)
    assert code == EXIT_OK and json.loads(out)["converged"] is True
    code, out, _ = run_cli(capsys, "path", "--manifest", manifest, "--mode", "full", "--k", "5")
    assert code == EXIT_OK
    assert all(r["converged"] for r in json.loads(out)["records"])

    # screening is refused before any level is solved
    solves, real_solve = [], tracereg.path.solve
    monkeypatch.setattr(tracereg.path, "solve",
                        lambda *a, **k: solves.append(a) or real_solve(*a, **k))
    for mode in ("screened", "both"):
        code, out, err = run_cli(capsys, "path", "--manifest", manifest, "--mode", mode,
                                 "--k", "5")
        assert code == EXIT_INPUT and out == ""
        assert "full row rank" in err
    assert solves == []


def test_path_both_modes_safety_exit(tmp_path, capsys, monkeypatch):
    # screened objectives off by 1e-3 relative break the 1e-4 safety rule;
    # the command still writes its payload, then exits 3
    import tracereg.path

    screened_path = tracereg.path.screened_path

    def off_screened_path(*args, **kwargs):
        result = screened_path(*args, **kwargs)
        records = tuple(
            dataclasses.replace(r, solution=dataclasses.replace(
                r.solution, objective=r.solution.objective * (1.0 + 1e-3)))
            for r in result.records
        )
        return dataclasses.replace(result, records=records)

    monkeypatch.setattr("tracereg.path.screened_path", off_screened_path)
    manifest = generate(capsys, tmp_path)
    out = tmp_path / "path.json"
    code, _, _ = run_cli(capsys, "path", "--manifest", manifest, "--k", "3",
                         "--out", str(out))
    assert code == EXIT_SAFETY
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 3
    assert payload["totals"]["objective_mismatch"] == pytest.approx(1e-3, rel=1e-9)


def test_path_iteration_cap_exit(tmp_path, capsys):
    manifest = generate(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "path", "--manifest", manifest,
                           "--k", "2", "--max-iter", "2")
    assert code == EXIT_NO_CONVERGENCE


def test_screen_stats_payload(tmp_path, capsys):
    manifest = generate(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "screen-stats", "--manifest", manifest,
                           "--k", "4")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["lambdas"]) == 4
    for entry in payload["lambdas"]:
        assert set(entry) == {"lambda", "screened_rows", "screened_cols",
                              "kept_dims"}


def test_bench_inline_spec(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code, _, _ = run_cli(
        capsys, "bench", "--kind", "gaussian", "--p", "3", "--q", "4",
        "--n", "6", "--k", "2", "--reps", "2", "--out", str(out),
    )
    assert code == EXIT_OK
    records = json.loads(out.read_text())
    assert len(records) == 1
    assert records[0]["label"] == "(3, 4)"
    assert records[0]["reps"] == 2
    assert records[0]["safety_ok"] is True


def test_bench_spec_file(tmp_path, capsys):
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps([
        {"kind": "gaussian", "p": 3, "q": 4, "n": 6},
        {"kind": "gaussian", "p": 2, "q": 5, "n": 6, "seed": 4},
    ]))
    out = tmp_path / "bench.json"
    code, _, _ = run_cli(capsys, "bench", "--spec-file", str(spec_file),
                         "--k", "2", "--reps", "1", "--out", str(out))
    assert code == EXIT_OK
    records = json.loads(out.read_text())
    assert [r["label"] for r in records] == ["(3, 4)", "(2, 5)"]


def test_report_round_trip(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code, _, _ = run_cli(
        capsys, "bench", "--p", "3", "--q", "4", "--n", "6",
        "--k", "2", "--reps", "1", "--out", str(out),
    )
    assert code == EXIT_OK

    code, text, _ = run_cli(capsys, "report", "--records", str(out),
                            "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "label"
    assert rows[1][0] == "(3, 4)"

    code, text, _ = run_cli(capsys, "report", "--records", str(out),
                            "--format", "markdown")
    assert code == EXIT_OK
    assert text.splitlines()[0].startswith("| dimension |")

    report_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "report", "--records", str(out),
                         "--format", "json", "--out", str(report_file))
    assert code == EXIT_OK
    assert json.loads(report_file.read_text())[0]["label"] == "(3, 4)"


def test_bad_grid_ratio_is_input_error(tmp_path, capsys):
    manifest = generate(capsys, tmp_path)
    code, _, err = run_cli(capsys, "path", "--manifest", manifest,
                           "--ratio", "1.5")
    assert code == EXIT_INPUT
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "0", "--out", "{tmp}/out"],
    ["bench", "--p", "3", "--q", "4", "--n", "6", "--k", "2", "--reps", "0"],
    ["bench", "--spec-file", "{tmp}/specs.json", "--k", "2", "--reps", "1"],
], ids=["generate-n0", "bench-reps0", "bench-unknown-spec-key"])
def test_bad_generator_input_is_input_error(tmp_path, capsys, argv):
    (tmp_path / "specs.json").write_text('[{"p": 3, "q": 4, "n": 6, "bogus": 1}]')
    code, _, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == EXIT_INPUT
    assert err.startswith("error:")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tracereg.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for sub in ("generate", "solve", "path", "bench", "screen-stats", "report"):
        assert sub in proc.stdout


def test_solve_counts_rank_by_the_path_rule(tmp_path, capsys, monkeypatch):
    # singular values (1, 1e-9): rank 1 at RANK_RTOL = 1e-6, as path records
    # count it, not 2 as at the max(p, q) * eps numerical-rank tolerance
    manifest = generate(capsys, tmp_path)
    b = np.zeros((4, 5))
    b[0, 0], b[1, 1] = 1.0, 1e-9
    real_solve = tracereg.cli.solve
    monkeypatch.setattr(tracereg.cli, "solve", lambda *args, **kwargs:
                        dataclasses.replace(real_solve(*args, **kwargs), B=b))
    code, out, _ = run_cli(capsys, "solve", "--manifest", manifest)
    assert code == EXIT_OK
    assert json.loads(out)["rank"] == 1


def count_gram_factors(monkeypatch):
    """The problems of every GramFactor built from here on, in order."""
    real_init = tracereg.model.GramFactor.__init__
    calls = []

    def counting_init(self, problem):
        calls.append(problem)
        real_init(self, problem)

    monkeypatch.setattr(tracereg.model.GramFactor, "__init__", counting_init)
    return calls


@pytest.mark.parametrize("argv", [["path", "--mode", "screened"], ["path", "--mode", "both"],
                                  ["screen-stats"]],
                         ids=["path-screened", "path-both", "screen-stats"])
def test_screened_commands_factor_the_gram_once(tmp_path, capsys, monkeypatch, argv):
    # the screened path takes prepare's Gram factor instead of building its own
    manifest = generate(capsys, tmp_path)
    calls = count_gram_factors(monkeypatch)
    code, _, _ = run_cli(capsys, *argv, "--manifest", manifest, "--k", "3")
    assert code == EXIT_OK
    assert len(calls) == 1


def test_bench_factors_the_gram_once_per_repetition(tmp_path, capsys, monkeypatch):
    # each repetition generates one problem; its screened path takes prepare's factor
    calls = count_gram_factors(monkeypatch)
    code, _, _ = run_cli(capsys, "bench", "--p", "3", "--q", "4", "--n", "6", "--k", "2",
                         "--reps", "2", "--out", str(tmp_path / "bench.json"))
    assert code == EXIT_OK
    assert len(calls) == 2
