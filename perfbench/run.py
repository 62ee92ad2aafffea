"""gnepsolve benchmark: one workload, measured in fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Every child process gets ``*_NUM_THREADS=1`` in its own environment.

With ``--trace 0`` it first times set-up (import plus instance build) in
several fresh processes, then runs a fixed number of passes of the
workload's job list with tracing off in one more fresh process, and prints
the end-to-end metrics, medians over the passes and set-up processes.  Times
are scaled to a fixed machine speed measured during the work (``speed.py``).
The number of passes is ``--seconds`` over the workload's nominal pass time,
so it does not depend on how fast the code under test runs.  With
``--trace 1`` it runs two pairs of passes, one untraced and one traced, in
one fresh process and prints the per-layer metrics.  Every job's output is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Counts that must
repeat exactly (solver iterations and exits, best-response iterations,
instance bytes) are compared between passes and processes; a mismatch makes
the run incorrect.  The full span table and the raw pass records go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("power-cli", "quad-certify", "quad-wide")

SETUP_RUNS = 8          # timed set-up processes, after one untimed warm-up
TRACED_PASSES = 2       # each after one untraced pass
# Typical pass time of each workload (at the fixed machine speed) at the
# commit that added the benchmark; fixes the pass count for a given --seconds.
NOMINAL_PASS_S = {"power-cli": 4.2, "quad-certify": 12.7, "quad-wide": 5.8}
MIN_PASSES = 2
DEADLINE_S = 170.0      # the whole run, children included

SINGLE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

# Per-layer metrics read from the span table, named <span or counter>.<field>.
SPAN_METRICS = (
    ("solver.solve", "total_s"),
    ("solver.solve_inner", "calls"),
    ("solver.solve_inner", "self_s"),
    ("solver.inner_step", "calls"),
    ("core.SimpleSet.project", "calls"),
    ("core.BlockLayout.block_slice", "calls"),
    ("core.BlockLayout.block_slice", "self_s"),
    ("lagrangian.evaluate_point", "calls"),
    ("lagrangian.evaluate_point", "self_s"),
    ("lagrangian.build_anchor", "calls"),
    ("lagrangian.build_anchor", "self_s"),
    ("solver.verify_run_bounds", "self_s"),
    ("solver.LipschitzEstimator.estimate", "calls"),
    ("solver.LipschitzEstimator.estimate", "self_s"),
    ("solver.LipschitzEstimator._resample", "calls"),
    ("solver.LipschitzEstimator._resample", "self_s"),
    ("solver.LipschitzEstimator.__init__", "self_s"),
    ("diagnostics.diagnose", "self_s"),
    ("diagnostics.best_response_gap", "calls"),
    ("diagnostics.best_response_gap", "self_s"),
    ("diagnostics.kkt_residual", "calls"),
    ("diagnostics.kkt_residual", "self_s"),
    ("cli.main", "self_s"),
    ("cli._result_document", "self_s"),
    ("cli.trace_csv_lines", "self_s"),
)
# The per-iteration monitoring: solve's own time plus its trace helpers.
MONITOR_SPANS = ("solver.solve", "solver._jac_norms", "solver._projected_gradient_pieces",
                 "solver._lagrangian_values_at", "solver._feasibility")
EXITS = ("descent", "true", "forced", "stall")


class BenchError(Exception):
    pass


def child(mode: str, args, workdir: Path, deadline: float, passes: int = 0) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--passes", str(passes), "--workdir", str(workdir)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(record["gnepsolve"]).resolve().parent != (ROOT / "src" / "gnepsolve").resolve():
        raise BenchError(f"imported gnepsolve from {record['gnepsolve']}, not this checkout")
    return record


def count_key(p: dict) -> tuple:
    return (p["outer"], p["sweeps"], tuple(sorted(p["exits"].items())))


def trace_counts(p: dict) -> dict:
    table = p["table"]
    counts = {f"span {k}": v["calls"] for k, v in table["spans"].items()}
    counts.update({f"counter {k}": v for k, v in table["counters"].items()})
    counts["br_iterations"] = p["br_iterations"]
    counts["br_certified"] = p["br_certified"]
    return counts


def mismatches(passes: list[dict], setups: list[dict]) -> list[str]:
    """Counts that differ between passes or processes of the same code."""
    out = []
    if len({count_key(p) for p in passes}) > 1:
        out.append("solver counts differ between passes: "
                   + "; ".join(str(count_key(p)) for p in passes))
    if len({s["instance_bytes"] for s in setups}) > 1:
        out.append(f"instance bytes differ: {sorted({s['instance_bytes'] for s in setups})}")
    traced = [trace_counts(p) for p in passes if "table" in p]
    for name in sorted(set().union(*traced)) if traced else ():
        values = [c.get(name) for c in traced]
        if len(set(values)) > 1:
            out.append(f"{name} differs between traced passes: {values}")
    return out


def end_to_end(passes: list[dict], setups: list[dict], measured: dict) -> dict:
    """Medians over passes and set-up processes, at the fixed machine speed
    of ``speed.py``: the speed samples' own time is taken out of each pass and
    each set-up, and what is left is divided by the slowness measured over it."""
    return {
        "wall_s": (statistics.median((p["wall_s"] - p["sample_s"]) / p["slowness"]
                                     for p in passes), "s"),
        "outer_us": (1e6 * statistics.median((p["solve_s"] - p["sample_in_solve_s"])
                                             / p["slowness"] for p in passes)
                     / max(passes[0]["outer"], 1), "us"),
        "setup_s": (statistics.median((s["setup_s"] - s["setup_sample_s"]) / s["setup_slowness"]
                                      for s in setups), "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }


def raw_times(passes: list[dict], setups: list[dict]) -> dict:
    """The same medians as measured, before scaling to the fixed speed."""
    return {
        "wall_s": statistics.median(p["wall_s"] - p["sample_s"] for p in passes),
        "setup_s": statistics.median(s["setup_s"] - s["setup_sample_s"] for s in setups),
        "slowness": statistics.median(p["slowness"] for p in passes),
        "setup_slowness": statistics.median(s["setup_slowness"] for s in setups),
    }


def per_layer(passes: list[dict], nbytes: int) -> tuple[dict, list[str]]:
    untraced = [p for p in passes if "table" not in p]
    traced = [p for p in passes if "table" in p]
    first = traced[0]
    absent = first["table"]["absent"]

    def field(p, name, key):
        table = p["table"]
        if name in table["spans"]:
            return table["spans"][name][key]
        if key == "calls":
            return table["counters"].get(name, 0)
        return 0.0

    def median(fn):
        return statistics.median(fn(p) for p in traced)

    out = {}
    for name, key in SPAN_METRICS:
        if key == "calls":
            out[f"{name}.{key}"] = (field(first, name, key), "count")
        else:
            out[f"{name}.{key}"] = (median(lambda p: field(p, name, key)), "s")
    out["solver.monitor.self_s"] = (
        median(lambda p: sum(field(p, n, "self_s") for n in MONITOR_SPANS)), "s")
    out["solver.sweep_share"] = (
        median(lambda p: field(p, "solver.solve_inner", "total_s")
               / max(field(p, "solver.solve", "total_s"), 1e-12)), "ratio")
    out["library.instance_bytes"] = (nbytes, "bytes")
    out["diagnostics.br_iterations"] = (first["br_iterations"], "count")
    out["diagnostics.br_certified_ratio"] = (
        first["br_certified"] / first["br_calls"] if first["br_calls"] else 0.0, "ratio")
    out["solver.outer_iters"] = (first["outer"], "count")
    out["solver.inner_sweeps"] = (first["sweeps"], "count")
    out["solver.accept_ratio"] = (first["outer"] / max(first["sweeps"], 1), "ratio")
    for kind in EXITS:
        out[f"solver.exit.{kind}"] = (first["exits"].get(kind, 0), "count")
    out["tracing.overhead_frac"] = (
        median(lambda p: p["wall_s"]) / statistics.median(p["wall_s"] for p in untraced) - 1.0,
        "ratio")
    return out, absent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gnepsolve" / "__init__.py").is_file():
        print(f"error: no gnepsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run then kills and waits for the child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        warmup = child("setup", args, workdir, deadline)   # bytecode and file cache
        if args.trace:
            setups = []
            measured = child("trace", args, workdir, deadline, TRACED_PASSES)
        else:
            setups = [child("setup", args, workdir, deadline) for _ in range(SETUP_RUNS)]
            passes = max(MIN_PASSES, int(args.seconds / NOMINAL_PASS_S[args.workload]))
            measured = child("measure", args, workdir, deadline, passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = measured["passes"]
    setups.append(measured)
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["jobs"] for p in passes)
    bad_counts = mismatches(passes, setups + [warmup])
    if args.trace:
        metrics, absent = per_layer(passes, measured["instance_bytes"])
    else:
        metrics, absent = end_to_end(passes, setups, measured), []

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(
        {"args": vars(args), "env": measured["env"], "setups": setups, "passes": passes,
         "count_mismatches": bad_counts}, indent=1))

    env = measured["env"]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"jobs {attempted}  failed {len(failures)}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"({env['blas_config']}), BLAS threads 1, nproc {env['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'fail_frac':<44} {len(failures) / attempted:>16.6g} ratio")
    if not args.trace:
        raw = raw_times(passes, setups)
        print("as measured, before scaling to the fixed machine speed: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name in absent:
        print(f"absent: {name} (no longer in the package; reported as 0)")
    for f in failures:
        print(f"FAILED {f}")
    for m in bad_counts:
        print(f"COUNT MISMATCH {m}")
    print(json.dumps({
        "correct": not failures and not bad_counts,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
