"""Benchmark command line: solve, bench, trace, validate.

Exit codes partition outcomes: 0 converged (and, for ``validate``, within
thresholds), 1 validation failure, 2 nonconvergence (any other solver
status, including ``oracle-failure``), 3 usage or I/O
error (argparse usage errors included).
Result documents and CSV outputs are byte-deterministic for a fixed seed
and configuration; bench wall-clock times are zeroed unless ``--wall-time``
is given so that repeated invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import library
from .core import DualStack, GameInstance, IterateState, OracleFailure, PlayerDualState
from .diagnostics import diagnose
from .lagrangian import PenaltyParams
from .solver import GammaPolicy, SolverConfig, solve

RESULT_VERSION = "result/1"

_USAGE_ERROR = 3
_VALIDATION_ERROR = 1
_NONCONVERGED = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = _USAGE_ERROR):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors with the usage-error exit code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


# ---------------------------------------------------------------------------
# Shared option parsing
# ---------------------------------------------------------------------------


def _add_problem_options(p: argparse.ArgumentParser):
    p.add_argument("--problem", help=f"built-in instance ({', '.join(library.BUILTIN_NAMES)})")
    p.add_argument("--load", help="path to a qgnep/1 instance file")
    p.add_argument("--x0", default="const:0", help="const:<v> | vec:<csv> | file:<path>")


def _add_solver_options(p: argparse.ArgumentParser):
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", default="auto", help="'auto' or a fixed value for every player")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-outer", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)


def _build_config(args) -> SolverConfig:
    """The solver configuration of the options; an invalid value is a usage
    error, raised before any instance is built."""
    try:
        if args.gamma == "auto":
            gamma = GammaPolicy.auto()
        else:
            try:
                value = float(args.gamma)
            except ValueError as exc:
                raise CliError(f"--gamma must be 'auto' or a number, got {args.gamma!r}") from exc
            gamma = GammaPolicy.fixed(value)
        return SolverConfig(beta=args.beta, gamma=gamma, outer_tol=args.tol,
                            max_outer=args.max_outer, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def threshold(text: str) -> float:
    """A residual threshold, such as ``validate --threshold``: finite and >= 0."""
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _load_game(args) -> tuple[GameInstance, dict]:
    if bool(args.problem) == bool(args.load):
        raise CliError("exactly one of --problem or --load is required")
    if args.problem:
        try:
            game = library.builtin_instance(args.problem, seed=args.seed)
        except KeyError:
            raise CliError(f"unknown problem {args.problem!r}")
        return game, {"kind": "builtin", "name": args.problem, "seed": args.seed}
    path = Path(args.load)
    return _load_instance_file(path), {"kind": "file", "path": str(path)}


# What reading a qgnep/1 file can raise: I/O errors, and FormatError and
# AdmissibilityError (both ValueError) for a malformed or nonconvex game.
_LOAD_ERRORS = (OSError, ValueError)


def _load_instance_file(path: Path) -> GameInstance:
    if not path.is_file():
        raise CliError(f"cannot read instance file {path}")
    try:
        return library.load_quadratic(path)
    except _LOAD_ERRORS as exc:
        raise CliError(f"failed to load {path}: {exc}")


def _parse_x0(spec: str, n: int) -> np.ndarray:
    """The start point of an x0 spec; every entry must be finite."""
    if spec.startswith("const:"):
        try:
            vals = np.full(n, float(spec[6:]))
        except ValueError:
            raise CliError(f"bad x0 constant in {spec!r}")
    elif spec.startswith("vec:"):
        try:
            vals = np.array([float(v) for v in spec[4:].split(",")])
        except ValueError:
            raise CliError(f"bad x0 vector in {spec!r}")
    elif spec.startswith("file:"):
        path = Path(spec[5:])
        try:
            vals = np.array([float(v) for v in path.read_text().replace(",", " ").split()])
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read x0 file {path}: {exc}")
    else:
        raise CliError(f"x0 spec {spec!r} must start with const:, vec:, or file:")
    if vals.shape != (n,):
        raise CliError(f"x0 {spec!r} has {vals.shape[0]} entries, expected {n}")
    if not np.isfinite(vals).all():
        raise CliError(f"x0 {spec!r} has a non-finite entry")
    return vals


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def _result_document(problem_ref: dict, args, result, game: GameInstance,
                     report=None) -> dict:
    cfgd = {
        "beta": args.beta, "gamma": args.gamma, "tol": args.tol,
        "max_outer": args.max_outer, "seed": args.seed, "x0": args.x0,
    }
    doc = {
        "version": RESULT_VERSION,
        "problem": problem_ref,
        "config": cfgd,
        "status": result.status,
        "solution": result.state.x.tolist(),
        "duals": [
            {"z": d.z.tolist(), "lambda": d.lam.tolist(), "mu": d.mu.tolist()}
            for d in result.state.duals
        ],
        "summary": {
            "n": game.n,
            "num_players": game.num_players,
            "m": game.total_constraints,
            "outer_iterations": result.outer_iterations,
            "total_inner_iterations": result.total_inner_iterations,
            "final_residual": result.final_residual,
        },
    }
    if report is not None:
        doc["diagnostics"] = report.as_dict()
    return doc


def trace_csv_lines(result, num_players: int) -> list[str]:
    header = ("k," + ",".join(f"L_{i + 1}" for i in range(num_players))
              + ",dx_inf,dlambda_inf,feas,inner_iters")
    lines = [header]
    cols = result.trace.columns
    # .tolist() gives Python floats, whose repr is the shortest round trip
    for k, L, *scalars in zip(*(cols[f].tolist() for f in ("k", "L_values", "dx_inf",
                                                          "dlambda_inf", "feas"))):
        lines.append(",".join([str(k), *map(repr, L + scalars), "1"]))
    return lines


def _write_file(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}")


def _check_out_dirs(*paths: str | None):
    """Fail before the run, not at the write: every output path other than
    ``-`` (standard output) must name a file in an existing directory."""
    for path in paths:
        if path and path != "-" and not Path(path).parent.is_dir():
            raise CliError(f"cannot write {path}: no directory {Path(path).parent}")


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _write_file(path, text)


# ---------------------------------------------------------------------------
# solve / trace
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    cfg = _build_config(args)
    game, ref = _load_game(args)
    x0 = _parse_x0(args.x0, game.n)
    _check_out_dirs(args.out, args.trace)
    result = solve(game, x0, cfg)
    report = None
    if not args.skip_diagnostics:
        try:
            report = diagnose(game, result.state, cfg.penalty(),
                              with_best_response=not args.skip_best_response)
        except OracleFailure as exc:   # the final state is where an oracle failed
            print(f"diagnostics skipped: {exc}", file=sys.stderr)
    doc = _result_document(ref, args, result, game, report)
    payload = json.dumps(doc, sort_keys=True, indent=1)
    doc_to_stdout = args.out == "-"
    if args.out and not doc_to_stdout:
        _write_file(args.out, payload)
    if args.trace:
        _write_text(args.trace, "\n".join(trace_csv_lines(result, game.num_players)) + "\n")
    if doc_to_stdout:
        print(payload)
    else:
        x = result.state.x
        print(f"problem: {game.name}")
        print(f"status: {result.status}   outer: {result.outer_iterations}   "
              f"inner: {result.total_inner_iterations}   residual: {result.final_residual:.3e}")
        if result.message:
            print(f"message: {result.message}")
        print("solution:", np.array2string(x, precision=6, max_line_width=100))
        if report is not None:
            print(f"worst residual (kkt/gap): {report.worst():.3e}")
    return 0 if result.status == "converged" else _NONCONVERGED


def cmd_trace(args) -> int:
    cfg = _build_config(args)
    game, ref = _load_game(args)
    x0 = _parse_x0(args.x0, game.n)
    _check_out_dirs(args.out)
    result = solve(game, x0, cfg)
    _write_text(args.out, "\n".join(trace_csv_lines(result, game.num_players)) + "\n")
    return 0 if result.status == "converged" else _NONCONVERGED


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_rows(args) -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    for spec in args.run or []:
        if "@" not in spec:
            raise CliError(f"--run needs <problem>@<x0spec>, got {spec!r}")
        name, x0spec = spec.split("@", 1)
        rows.append((name, x0spec))
    if args.problem:
        rows.append((args.problem, args.x0))
    if not rows:
        raise CliError("bench needs --run entries or --problem")
    return rows


def _run_bench_row(name: str, x0spec: str, args, cfg: SolverConfig):
    try:
        row_args = argparse.Namespace(**vars(args))
        row_args.problem, row_args.load, row_args.x0 = name, None, x0spec
        game, _ = _load_game(row_args)
        x0 = _parse_x0(x0spec, game.n)
        result = solve(game, x0, cfg)
        return {
            "problem": name, "N": game.num_players, "n": game.n,
            "m": game.total_constraints,
            "x0": x0spec,
            "inner_iters": result.total_inner_iterations,
            "outer_iters": result.outer_iterations,
            # zeroed unless requested, so the bytes repeat
            "time_s": result.wall_time if args.wall_time else 0.0, "status": result.status,
            "final_residual": result.final_residual,
        }
    except CliError:
        raise
    except Exception as exc:   # per-row isolation: report, do not abort the table
        return {"problem": name, "N": 0, "n": 0, "m": 0, "x0": x0spec,
                "inner_iters": 0, "outer_iters": 0, "time_s": 0.0,
                "status": f"error: {exc}", "final_residual": float("nan")}


_BENCH_COLUMNS = ("problem", "N", "n", "m", "x0", "inner_iters", "outer_iters",
                  "time_s", "status", "final_residual")


def _bench_cells(row: dict) -> list[str]:
    """A bench row's fields as both the CSV and the text table print them,
    every comma replaced by ``;`` so that the CSV splits naively."""
    return [(f"{row[c]:.3f}" if c == "time_s" else repr(float(row[c])) if c == "final_residual"
             else str(row[c])).replace(",", ";") for c in _BENCH_COLUMNS]


def bench_csv_lines(rows: list[dict]) -> list[str]:
    return [",".join(_BENCH_COLUMNS), *(",".join(_bench_cells(r)) for r in rows)]


def bench_text_table(rows: list[dict]) -> str:
    table = [list(_BENCH_COLUMNS), *map(_bench_cells, rows)]
    widths = [max(map(len, column)) for column in zip(*table)]
    return "\n".join("  ".join(v.ljust(w) for v, w in zip(t, widths)) for t in table)


def cmd_bench(args) -> int:
    _check_out_dirs(args.out)
    cfg = _build_config(args)
    rows = [_run_bench_row(name, x0spec, args, cfg) for name, x0spec in _bench_rows(args)]
    csv_text = "\n".join(bench_csv_lines(rows)) + "\n"
    if args.out:
        _write_file(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    print(bench_text_table(rows))
    return 0 if all(r["status"] == "converged" for r in rows) else _NONCONVERGED


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _numeric_vector(value, length: int, what: str) -> np.ndarray:
    try:
        vec = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.shape != (length,):
        raise CliError(f"{what} must be a numeric vector of length {length}")
    if not np.isfinite(vec).all():
        raise CliError(f"{what} has a non-finite entry")
    return vec


def cmd_validate(args) -> int:
    path = Path(args.result)
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError):
        raise CliError(f"cannot read result document {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: not a valid result document: {exc.msg}")
    if not isinstance(doc, dict) or doc.get("version") != RESULT_VERSION:
        raise CliError(f"{path}: field 'version' must be {RESULT_VERSION!r}")
    ref = doc.get("problem")
    if not isinstance(ref, dict):
        raise CliError(f"{path}: unsupported problem reference {ref!r}")
    if ref.get("kind") == "builtin":
        try:
            game = library.builtin_instance(ref["name"], seed=int(ref.get("seed", 0)))
        except (KeyError, TypeError, ValueError):
            raise CliError(f"{path}: unknown problem reference {ref!r}")
    elif ref.get("kind") == "file":
        if not isinstance(ref.get("path"), str):
            raise CliError(f"{path}: file problem reference has no path")
        game = _load_instance_file(Path(ref["path"]))
    else:
        raise CliError(f"{path}: unsupported problem reference {ref!r}")

    x = _numeric_vector(doc.get("solution"), game.n, f"{path}: field 'solution'")
    blocks = doc.get("duals")
    if not isinstance(blocks, list) or len(blocks) != game.num_players:
        raise CliError(f"{path}: expected {game.num_players} dual blocks")
    duals = []
    for i, (d, p) in enumerate(zip(blocks, game.players)):
        if not isinstance(d, dict):
            raise CliError(f"{path}: player {i} dual block must be an object")
        z, lam, mu = (_numeric_vector(d.get(key), p.m, f"{path}: player {i} field {key!r}")
                      for key in ("z", "lambda", "mu"))
        if np.any(lam < 0):
            raise CliError(f"{path}: player {i} has a negative multiplier")
        duals.append(PlayerDualState(z, lam, mu))
    state = IterateState(x, DualStack.of(duals, game.rows))

    cfg = doc.get("config", {})
    try:
        penalty = PenaltyParams(float(cfg.get("alpha", 10.0)), float(cfg.get("beta", 1.0)))
    except (AttributeError, TypeError, ValueError):
        raise CliError(f"{path}: config fields 'alpha' and 'beta' must be finite positive numbers")
    try:   # huge finite duals overflow to inf, which the verdict fails
        report = diagnose(game, state, penalty)
    except OracleFailure as exc:
        raise CliError(f"{path}: an oracle fails at the solution: {exc}", _VALIDATION_ERROR)
    print(f"stationarity:     {max(report.stationarity):.3e}")
    print(f"complementarity:  {max(report.complementarity):.3e}")
    print(f"feasibility:      {max(report.feasibility):.3e}")
    gaps = report.best_response_gaps
    print(f"best-response:    {max(gaps):.3e}")
    print(f"projected grad:   {report.projected_gradient_total:.3e}")
    for note in report.notes:
        print("note:", note)
    ok = report.worst() <= args.threshold and np.isfinite(report.projected_gradient_total)
    print("verdict:", "within thresholds" if ok else "EXCEEDS thresholds")
    return 0 if ok else _VALIDATION_ERROR


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="gnepsolve",
                         description="Equilibrium solver benchmark harness")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one instance and write a result document")
    _add_problem_options(ps)
    _add_solver_options(ps)
    ps.add_argument("--trace", help="also write the per-iteration trace CSV here ('-': stdout)")
    ps.add_argument("--out", help="write the result document (JSON) here ('-': stdout)")
    ps.add_argument("--skip-diagnostics", action="store_true")
    ps.add_argument("--skip-best-response", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="run a table of instances and emit a summary")
    pb.add_argument("--run", action="append",
                    help="<problem>@<x0spec>; may be repeated")
    _add_problem_options(pb)
    _add_solver_options(pb)
    pb.add_argument("--out", help="CSV output path (default: stdout)")
    pb.add_argument("--wall-time", action="store_true",
                    help="record measured times (breaks byte determinism)")
    pb.set_defaults(func=cmd_bench)

    pt = sub.add_parser("trace", help="solve and emit the convergence trace CSV")
    _add_problem_options(pt)
    _add_solver_options(pt)
    pt.add_argument("--out", default="-", help="trace CSV path (default: stdout)")
    pt.set_defaults(func=cmd_trace)

    pv = sub.add_parser("validate", help="re-check a result document")
    pv.add_argument("result", help="path to a result/1 document")
    pv.add_argument("--threshold", type=threshold, default=1e-3)
    pv.set_defaults(func=cmd_validate)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except library.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
