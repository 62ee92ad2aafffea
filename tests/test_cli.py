"""Command-line harness: flags, artifacts, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from gnepsolve import cli, library
from gnepsolve.core import BlockLayout, SimpleSet
from gnepsolve.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_example3_from_zero(tmp_path, capsys):
    out = tmp_path / "result.json"
    code, stdout, _ = run_cli(
        capsys, "solve", "--problem", "example3", "--x0", "const:0",
        "--tol", "1e-4", "--out", str(out),
        "--skip-best-response")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == "result/1"
    assert doc["status"] == "converged"
    np.testing.assert_allclose(doc["solution"], [1.0, 0.0], atol=1e-3)
    assert len(doc["duals"]) == 2
    assert doc["summary"]["m"] == 2


def test_solve_unknown_problem(capsys):
    code, _, stderr = run_cli(capsys, "solve", "--problem", "nosuch")
    assert code == 3
    assert "unknown problem" in stderr


def test_solve_requires_problem_or_load(capsys):
    code, _, stderr = run_cli(capsys, "solve", "--x0", "const:0")
    assert code == 3


def test_solve_bad_x0(capsys):
    code, _, stderr = run_cli(capsys, "solve", "--problem", "example3",
                              "--x0", "vec:1,2,3")
    assert code == 3
    assert "x0" in stderr


@pytest.mark.parametrize("case", ["x0-token", "x0-dir", "bench-x0", "validate-dir",
                                  "validate-binary", "solve-out", "trace-out"])
def test_io_errors_exit_3(tmp_path, capsys, case):
    bad_x0 = tmp_path / "x0.txt"
    bad_x0.write_text("1.0 abc\n")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    missing = tmp_path / "missing"
    quick = ["--problem", "example3", "--max-outer", "3"]
    argv = {
        "x0-token": ["solve", *quick, "--x0", f"file:{bad_x0}"],
        "x0-dir": ["solve", *quick, "--x0", f"file:{tmp_path}"],
        "bench-x0": ["bench", "--run", f"example3@file:{bad_x0}", "--max-outer", "3"],
        "validate-dir": ["validate", str(tmp_path)],
        "validate-binary": ["validate", str(binary)],
        "solve-out": ["solve", *quick, "--skip-diagnostics", "--out", str(missing / "r.json")],
        "trace-out": ["trace", *quick, "--out", str(missing / "t.csv")],
    }[case]
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 3
    assert stderr.startswith("error:")
    assert not missing.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--out", "{missing}/r.json"],
    ["solve", "--out", "-", "--trace", "{missing}/t.csv"],
    ["trace", "--out", "{missing}/t.csv"],
    ["bench", "--out", "{missing}/b.csv"],
])
def test_missing_output_directory_fails_before_solving(tmp_path, capsys, monkeypatch, argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(cli, "solve", no_solve)
    missing = tmp_path / "missing"
    argv = [a.format(missing=missing) for a in argv]
    code, stdout, stderr = run_cli(capsys, *argv, "--problem", "example3")
    assert code == 3
    assert stderr.startswith("error:") and str(missing) in stderr
    assert stdout == ""


def test_solve_out_dash_writes_document_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    quick = ["solve", "--problem", "example3", "--max-outer", "3", "--skip-diagnostics"]
    code, stdout, _ = run_cli(capsys, *quick, "--out", "-")
    assert code == 2
    assert not (tmp_path / "-").exists()
    assert json.loads(stdout)["status"] == "max_outer"
    code, _, _ = run_cli(capsys, *quick, "--out", "r.json")
    assert code == 2
    assert stdout == (tmp_path / "r.json").read_text() + "\n"


def test_solve_fixed_gamma_flag(capsys):
    code, _, _ = run_cli(capsys, "solve", "--problem", "example3",
                         "--x0", "const:0", "--gamma", "40",
                         "--skip-diagnostics")
    assert code == 0


def test_solve_power_converges_under_defaults(tmp_path, capsys):
    out = tmp_path / "power.json"
    code, _, _ = run_cli(capsys, "solve", "--problem", "power", "--x0", "const:0",
                         "--skip-diagnostics", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["status"] == "converged"


def test_solve_a18_certifies_both_players(tmp_path, capsys):
    # a18's own blocks are singular; the best-response reference certifies
    # both players at the capped run's final point
    out = tmp_path / "a18.json"
    run_cli(capsys, "solve", "--problem", "a18", "--x0", "const:0", "--max-outer", "50",
            "--out", str(out))
    diag = json.loads(out.read_text())["diagnostics"]
    gaps = diag["best_response_gaps"]
    assert len(gaps) == 2 and all(np.isfinite(g) for g in gaps)
    assert diag["notes"] == []


def test_solve_invalid_tolerance(capsys):
    code, _, stderr = run_cli(capsys, "solve", "--problem", "example3",
                              "--tol", "-1")
    assert code == 3


_BAD_OPTIONS = [["--alpha", "0"], ["--alpha", "nan"], ["--beta", "-1"], ["--seed", "-1"],
                ["--gamma-safety", "0.5"], ["--gamma-safety", "nan"], ["--gamma", "nan"],
                ["--gamma", "-5"], ["--gamma", "inf"], ["--gamma", "abc"], ["--tol", "nan"]]


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("option", _BAD_OPTIONS, ids="=".join)
def test_invalid_solver_options_exit_3(capsys, command, option):
    # a usage error before any instance is built: arrow-debreu draws its data
    # from the seed, so a negative seed must not reach the generator either
    code, _, stderr = run_cli(capsys, command, "--problem", "arrow-debreu", "--x0", "const:0",
                              "--max-outer", "3", *option)
    assert code == 3
    assert stderr.startswith("error:") and "Traceback" not in stderr


@pytest.mark.parametrize("x0", ["const:nan", "const:inf", "const:-inf", "const:1e400",
                                "vec:1,nan", "vec:inf,0", "file"])
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_non_finite_start_exit_3(tmp_path, capsys, command, x0):
    # a start that is not finite is a usage error, not an oracle failure of
    # the run (const:1e200 is finite and does run; see the test below)
    if x0 == "file":
        path = tmp_path / "x0.txt"
        path.write_text("0.5 inf\n")
        x0 = f"file:{path}"
    code, _, stderr = run_cli(capsys, command, "--problem", "example3", "--x0", x0,
                              "--max-outer", "3")
    assert code == 3
    assert "non-finite" in stderr


def test_solve_nonconvergence_exit_code(capsys):
    code, _, _ = run_cli(capsys, "solve", "--problem", "example3",
                         "--x0", "const:0", "--max-outer", "3",
                         "--skip-diagnostics")
    assert code == 2


def test_solve_oracle_failure_exit_code(tmp_path, capsys):
    # x0 = 1e200 overflows the objective at the start; the diagnostics, which
    # evaluate the oracles at that state too, are skipped with a note
    spec = library.QuadraticGnepSpec(BlockLayout((1,)), [library.QuadraticPlayerSpec(
        np.eye(1), np.zeros(1), SimpleSet.free(1))], "overflow")
    path = tmp_path / "overflow.json"
    library.save_quadratic(spec, path)
    doc = tmp_path / "overflow-result.json"
    with np.errstate(over="ignore"):
        code, stdout, stderr = run_cli(capsys, "solve", "--load", str(path),
                                       "--x0", "const:1e200", "--out", str(doc))
        assert code == 2
        assert "status: oracle-failure" in stdout
        assert "diagnostics skipped" in stderr
        # the document holds that state, which validate reports as a failure
        code, _, stderr = run_cli(capsys, "validate", str(doc))
    assert code == 1
    assert "oracle fails" in stderr


def test_solve_malformed_instance_file(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, _, stderr = run_cli(capsys, "solve", "--load", str(path))
    assert code == 3
    assert stderr.startswith("error: failed to load")


@pytest.mark.parametrize("argv", [["solve", "--problem", "example3", "--format", "csv"],
                                  ["solve", "--problem", "example3", "--no-such-flag"],
                                  ["frobnicate"],
                                  ["bench", "--run", "example3@const:0", "--threads", "2"],
                                  ["solve", "--problem", "example3", "--br-budget", "5"]])
def test_argparse_usage_errors_exit_3(capsys, argv):
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 3
    assert "error:" in stderr


def test_result_documents_byte_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys, "solve", "--problem", "random-quadratic", "--seed", "5",
            "--x0", "const:0", "--out", str(out),
            "--skip-best-response")
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_alpha_reaches_neither_the_iterates_nor_the_dual_fields(tmp_path, capsys):
    # solve keeps z = 0 and mu = lam, so alpha enters no iterate: documents
    # solved at alpha 0.1 and 1e4 differ only in config.alpha, every z is
    # +0.0 and every mu is lambda, and the trace CSVs are the same bytes
    docs, traces = [], []
    for alpha in ("0.1", "10000"):
        out, trace = tmp_path / f"{alpha}.json", tmp_path / f"{alpha}.csv"
        code, _, _ = run_cli(capsys, "solve", "--problem", "example3", "--x0", "const:0",
                             "--alpha", alpha, "--out", str(out), "--trace", str(trace),
                             "--skip-best-response")
        assert code == 0
        docs.append(json.loads(out.read_text()))
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]
    assert [doc["config"].pop("alpha") for doc in docs] == [0.1, 10000.0]
    # compared as text: the skipped best-response gaps are NaN
    assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)
    for block in docs[0]["duals"]:
        assert all(z == 0.0 and math.copysign(1.0, z) == 1.0 for z in block["z"])
        assert json.dumps(block["mu"]) == json.dumps(block["lambda"])


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_header_and_final_step(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "trace", "--problem", "example3",
                         "--x0", "const:0",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,L_1,L_2,dx_inf,dlambda_inf,feas,inner_iters"
    last = lines[-1].split(",")
    assert float(last[3]) <= 1e-4 or float(last[4]) <= 1e-4
    # the stopping residual is the max of the two moves
    assert max(float(last[3]), float(last[4])) <= 1e-4


def test_trace_monotone_columns_on_interior_instance(tmp_path, capsys):
    # single-player game whose constraint never activates: the value trace is
    # a strict descent and the emitted columns are nonincreasing
    spec, plant = library.random_quadratic_spec(1, 2, 1, seed=1)
    gpath = tmp_path / "interior.json"
    library.save_quadratic(spec, gpath)
    out = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "trace", "--load", str(gpath),
                         "--x0", "vec:" + ",".join(repr(float(v)) for v in plant),
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,L_1,dx_inf,dlambda_inf,feas,inner_iters"
    L = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.all(np.diff(L) <= 1e-9)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

BENCH_ARGS = [
    "bench",
    "--run", "example3@const:0",
    "--run", "example3@vec:2,1",
    "--run", "example3@vec:-1,-1",
    "--run", "a18@const:0",
    "--max-outer", "600",
]


def test_bench_four_rows_and_a18_census(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, stdout, _ = run_cli(capsys, *BENCH_ARGS, "--out", str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("problem,N,n,m,x0,")
    assert len(lines) == 5
    rows = [l.split(",") for l in lines[1:]]
    for r in rows[:3]:
        assert r[0] == "example3" and r[8] == "converged"
    a18 = rows[3]
    assert a18[0] == "a18"
    assert a18[1] == "2" and a18[2] == "12" and a18[3] == "28"
    # the two-company market orbits its degenerate equilibrium set and does
    # not meet the step-based stopping rule; the row reports that honestly
    assert a18[8] in ("max_outer", "stalled-stationary")
    assert code == 2


def test_bench_byte_deterministic(tmp_path, capsys):
    blobs, tables = [], []
    for name in ("b1.csv", "b2.csv"):
        out = tmp_path / name
        _, stdout, _ = run_cli(capsys, "bench", "--run", "example3@const:0",
                               "--run", "random-quadratic@const:0", "--seed", "3",
                               "--out", str(out))
        blobs.append(out.read_bytes())
        tables.append(stdout)
    assert blobs[0] == blobs[1]
    assert tables[0] == tables[1]   # the text table too
    assert b"time_s" in blobs[0]
    assert b"0.000" in blobs[0]   # wall time zeroed unless requested
    assert all(row.split()[7] == "0.000" for row in tables[0].splitlines()[1:])


def test_bench_error_rows_keep_the_csv_splittable(capsys, monkeypatch):
    # a row whose solve raises reports the error in its status; the commas
    # of that message and of its x0 become ';', so every CSV line splits
    # into the header's fields, and the text table shows the same cells
    def failing_solve(*args, **kwargs):
        raise RuntimeError("singular matrix, rank 1")

    monkeypatch.setattr(cli, "solve", failing_solve)
    code, stdout, _ = run_cli(capsys, "bench", "--run", "example3@vec:2,1", "--run", "a18@const:0")
    lines = stdout.splitlines()
    csv, table = lines[:3], lines[3:]
    assert csv[0] == ",".join(cli._BENCH_COLUMNS)
    assert all(len(line.split(",")) == len(cli._BENCH_COLUMNS) for line in csv)
    assert csv[1].split(",")[4] == "vec:2;1"
    assert csv[1].split(",")[8] == csv[2].split(",")[8] == "error: singular matrix; rank 1"
    assert len(table) == 3 and "vec:2;1" in table[1] and "matrix; rank 1" in table[2]
    assert code == 2


def test_x0_from_file(tmp_path, capsys):
    x0file = tmp_path / "start.txt"
    x0file.write_text("2.0, 1.0\n")
    code, _, _ = run_cli(capsys, "solve", "--problem", "example3",
                         "--x0", f"file:{x0file}",
                         "--skip-diagnostics")
    assert code == 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ex3_result_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("docs") / "ex3.json"
    code = main(["solve", "--problem", "example3", "--x0", "const:0",
                 "--tol", "1e-7", "--out", str(out),
                 "--skip-diagnostics"])
    assert code == 0
    return out


def test_validate_converged_solution(ex3_result_doc, capsys):
    code, stdout, _ = run_cli(capsys, "validate", str(ex3_result_doc))
    assert code == 0
    assert "within thresholds" in stdout


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_validate_threshold_must_be_finite_and_nonnegative(ex3_result_doc, capsys, value):
    # a NaN or negative threshold would fail every document, an infinite one
    # would pass even an uncertified gap: each is a usage error
    code, stdout, stderr = run_cli(capsys, "validate", str(ex3_result_doc), "--threshold", value)
    assert code == 3
    assert "--threshold" in stderr and "verdict" not in stdout


def test_validate_perturbed_solution_fails(ex3_result_doc, tmp_path, capsys):
    doc = json.loads(ex3_result_doc.read_text())
    doc["solution"][0] += 0.1
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(doc))
    code, stdout, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "EXCEEDS" in stdout


def test_validate_rejects_negative_multiplier(ex3_result_doc, tmp_path, capsys):
    doc = json.loads(ex3_result_doc.read_text())
    doc["duals"][0]["lambda"][0] = -0.5
    bad = tmp_path / "negative.json"
    bad.write_text(json.dumps(doc))
    code, _, stderr = run_cli(capsys, "validate", str(bad))
    assert code == 3
    assert "negative multiplier" in stderr


@pytest.mark.parametrize("ref", [{"kind": "file", "path": "/nonexistent/game.json"},
                                 {"kind": "file"}, {"kind": "file", "path": 5}])
def test_validate_missing_instance_file(ex3_result_doc, tmp_path, capsys, ref):
    doc = json.loads(ex3_result_doc.read_text())
    doc["problem"] = ref
    bad = tmp_path / "file-ref.json"
    bad.write_text(json.dumps(doc))
    code, _, stderr = run_cli(capsys, "validate", str(bad))
    assert code == 3
    assert stderr.startswith("error:")


_DELETE = object()


@pytest.mark.parametrize("where,value,names", [
    (("duals", 1, "lambda"), [0.5, 0.5, 0.5], "player 1 field 'lambda'"),
    (("duals", 1, "z"), "abc", "player 1 field 'z'"),
    (("duals", 1, "lambda"), _DELETE, "player 1 field 'lambda'"),
    (("solution",), [1.0], "field 'solution'"),
    (("config", "alpha"), "abc", "'alpha'"),
    (("problem",), "example3", "problem reference"),
    (("problem", "seed"), "x", "problem reference"),
    (("config", "alpha"), float("nan"), "'alpha'"),
    (("config", "beta"), float("inf"), "'beta'"),
    (("duals", 0, "lambda"), [float("inf")], "player 0 field 'lambda'"),
    (("duals", 1, "mu"), [float("nan")], "player 1 field 'mu'"),
    (("solution",), [float("-inf"), 0.0], "field 'solution'"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")   # rejected before NumPy sees it
def test_validate_malformed_fields(ex3_result_doc, tmp_path, capsys, where, value, names):
    doc = json.loads(ex3_result_doc.read_text())
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(doc))
    code, _, stderr = run_cli(capsys, "validate", str(bad))
    assert code == 3
    assert stderr.startswith("error:")
    assert names in stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_overflowing_solution_is_an_oracle_failure(ex3_result_doc, tmp_path, capsys):
    # finite, but the objective overflows: the checked sweep reports it before
    # an unchecked oracle call warns
    doc = json.loads(ex3_result_doc.read_text())
    doc["solution"] = [1e308, -1e308]
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(doc))
    code, _, stderr = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "oracle fails" in stderr


@pytest.mark.parametrize("key, value, line", [
    ("lambda", [1e308], "stationarity:     inf"),
    ("z", [1e200], "projected grad:   inf"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_huge_finite_duals_fail_without_numpy_warnings(ex3_result_doc, tmp_path, capsys,
                                                                key, value, line):
    # finite duals whose products overflow: the residuals read inf, no NumPy
    # warning is raised, and the verdict fails them, the projected gradient
    # included (the other residuals of the z document are within 1e-2)
    doc = json.loads(ex3_result_doc.read_text())
    doc["duals"][0][key] = value
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    code, stdout, _ = run_cli(capsys, "validate", str(bad), "--threshold", "1e-2")
    assert code == 1
    assert line in stdout
    assert "verdict: EXCEEDS thresholds" in stdout


def test_validate_unreadable_input(capsys):
    code, _, stderr = run_cli(capsys, "validate", "/nonexistent/result.json")
    assert code == 3
