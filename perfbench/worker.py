"""One workload in one fresh process; prints one JSON line with its record.

    python3 perfbench/worker.py {setup|measure|trace} --workload NAME --seed N
        --passes P --workdir DIR

``setup`` imports gnepsolve and builds the instances, timing both while a
``speed.Sampler`` measures the machine's speed.  ``measure`` then runs
``--passes`` whole passes of the job list with tracing off, timing each pass
and the time spent in ``solve``, again with the machine's speed sampled.
``trace`` runs ``--passes`` pairs of passes, one with tracing off and one
traced, so the tracing overhead and the repeatability of every count are
measured in the same process; it samples no speed.

The caller sets the BLAS thread count to 1 and puts the checkout's ``src``
first on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import speed
from tracer import Tracer

# Spans timed in a traced pass; the first one is also wrapped with tracing
# off, one call per job, to read the solver counts off its result.
SPANS = (
    "solver.solve",
    "solver.solve_inner",
    "solver.verify_run_bounds",
    "solver._jac_norms",
    "solver._projected_gradient_pieces",
    "solver._lagrangian_values_at",
    "solver._feasibility",
    "solver.LipschitzEstimator.__init__",
    "solver.LipschitzEstimator.estimate",
    "solver.LipschitzEstimator._resample",
    "lagrangian.evaluate_point",
    "lagrangian.build_anchor",
    "core.BlockLayout.block_slice",
    "diagnostics.diagnose",
    "diagnostics.best_response_gap",
    "diagnostics.kkt_residual",
    "cli.main",
    "cli._result_document",
    "cli.trace_csv_lines",
)
# Called once per sweep or more: counted, not timed.
COUNTERS = ("solver.inner_step", "core.SimpleSet.project")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run_pass(jobs, traced: bool, sampled: bool = False) -> dict:
    """Run every job once, serially; a job that raises counts as failed.

    With ``sampled`` the machine's speed is sampled during the pass; the
    record then holds the samples' count and time, in all and inside
    ``solve``, which the pass and solve times include.
    """
    census = {"outer": 0, "sweeps": 0, "exits": Counter(), "br_iterations": 0,
              "br_calls": 0, "br_certified": 0}

    def on_solve(res):
        census["outer"] += res.outer_iterations
        census["sweeps"] += res.total_inner_iterations
        census["exits"].update(r.exit_kind for r in res.trace.rows)

    def on_best_response(info):
        census["br_iterations"] += info.iterations
        census["br_calls"] += 1
        census["br_certified"] += bool(info.certified)

    tracer = Tracer()
    tracer.install("solver.solve", on_return=on_solve)
    if traced:
        for name in SPANS[1:]:
            tracer.install(name)
        for name in COUNTERS:
            tracer.install(name, timed=False)
        tracer.install("diagnostics.solve_best_response", timed=False, on_return=on_best_response)
    failures = []
    sampler = speed.Sampler(speed.numpy_kernel, speed.PASS_PERIOD_S,
                            speed.NUMPY_KERNEL_NOMINAL_S, inside=lambda: tracer.depth > 0)
    t0 = time.perf_counter()
    try:
        with sampler if sampled else contextlib.nullcontext():
            for label, job in jobs:
                try:
                    job()
                except Exception as exc:   # a failed job is counted; the pass goes on
                    failures.append(f"{label}: {type(exc).__name__}: {exc}")
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()
    record = {
        "wall_s": wall,
        "solve_s": tracer.spans["solver.solve"][1],
        "jobs": len(jobs),
        "failures": failures,
        "outer": census["outer"],
        "sweeps": census["sweeps"],
        "exits": dict(census["exits"]),
    }
    if sampled:
        record.update(samples=sampler.samples, sample_s=sampler.sample_s,
                      sample_in_solve_s=sampler.inside_s, slowness=sampler.slowness())
    if traced:
        record.update(br_iterations=census["br_iterations"], br_calls=census["br_calls"],
                      br_certified=census["br_certified"], table=tracer.table())
    return record


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    sampler = speed.Sampler(speed.python_kernel, speed.SETUP_PERIOD_S,
                            speed.PYTHON_KERNEL_NOMINAL_S)
    with sampler:
        t0 = time.perf_counter()
        import gnepsolve
        import workloads
        jobs, nbytes = workloads.build(args.workload, args.seed, args.workdir)
        setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "setup_sample_s": sampler.sample_s,
           "setup_slowness": sampler.slowness(), "instance_bytes": nbytes,
           "gnepsolve": gnepsolve.__file__}

    if args.mode == "measure":
        out["env"] = environment()
        speed.numpy_kernel()   # builds its arrays outside the timed passes
        out["passes"] = [run_pass(jobs, traced=False, sampled=True) for _ in range(args.passes)]
    elif args.mode == "trace":
        out["env"] = environment()
        out["passes"] = [run_pass(jobs, traced=t) for _ in range(args.passes) for t in (False, True)]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
