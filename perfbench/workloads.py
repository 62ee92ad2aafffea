"""The benchmark's workloads: instances built from the seed, jobs, and checks.

A workload is a list of jobs run serially (a closed loop: the next job starts
when the previous one ends).  ``build`` makes the jobs; each job solves,
checks its own output and raises ``CheckFailed`` when the output is wrong.

- ``power-cli``: the CLI's default ``solve`` call on the ``power`` built-in,
  with full diagnostics and the trace CSV, run in-process through
  ``cli.main``.  The run is capped at ``POWER_MAX_OUTER`` outer iterations
  (a full run to convergence takes about a minute), so the expected status
  is ``max_outer``, and the residual, feasibility and best-response gaps at
  the cap are checked against ten times their values at the commit that
  added the benchmark (``POWER_AT_CAP``).  The instance is the CLI's default
  (``--seed 0``) one, whatever the benchmark seed: other gain draws change
  the sweep count, and with it the run time, by about 15% either way.
- ``quad-certify``: twenty planted quadratic games solved tightly and then
  certified player by player with the best-response reference and the KKT
  residual.  The games are the test suite's (generator seeds from base 100);
  the benchmark seed only orders the jobs.  Other bases include games that do
  not converge or certify from their plants.
- ``quad-wide``: one 40-player quadratic game, drawn with the benchmark
  seed, run for a fixed budget of outer iterations; it does not converge
  under the defaults, so this measures throughput at a stated size.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path
from typing import Callable

import numpy as np

import gnepsolve as G
from gnepsolve import cli, diagnostics, library

POWER_MAX_OUTER = 1500
# power-cli's result document at the cap, at the commit that added the
# benchmark; a run fails its check beyond POWER_SLACK times these.
POWER_AT_CAP = {"final_residual": 6.724e-3, "feasibility": 6.670e-3, "best_response_gap": 1.582e-3}
POWER_SLACK = 10.0
QUAD_SHAPES = [(1, 2, 2), (2, 2, 1), (2, 3, 2), (3, 2, 1), (2, 2, 2)]
QUAD_BASE = 100
WIDE_SHAPE = (40, 4, 2)
WIDE_MAX_OUTER = 300


class CheckFailed(Exception):
    """A job finished but its output is wrong."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def fast_config(**kw) -> G.SolverConfig:
    """The test suite's configuration: constant inner step schedule."""
    return G.SolverConfig(sigma=G.SigmaSchedule.constant(), **kw)


def instance_bytes(obj) -> int:
    """Bytes of the distinct numpy arrays an instance holds, computed from
    array sizes (cache behaviour is not measured).

    Walks dataclass fields, containers and the defaults and closure cells of
    the players' oracle functions.
    """
    seen: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            total += o.nbytes
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif callable(o) and hasattr(o, "__code__"):
            stack.extend(o.__defaults__ or ())
            stack.extend((o.__kwdefaults__ or {}).values())
            stack.extend(c.cell_contents for c in (o.__closure__ or ())
                         if c.cell_contents is not None)
        elif hasattr(o, "__dataclass_fields__"):
            stack.extend(getattr(o, f) for f in o.__dataclass_fields__)
    return total


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def _power_cli_job(workdir: Path) -> Callable[[], None]:
    out, trace = workdir / "power-result.json", workdir / "power-trace.csv"
    argv = ["solve", "--problem", "power", "--x0", "const:0",
            "--max-outer", str(POWER_MAX_OUTER), "--out", str(out), "--trace", str(trace)]

    def job():
        for path in (out, trace):
            path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        require(code == 2, f"exit code {code}, expected 2 (not converged at the cap)")
        doc = json.loads(out.read_text())
        require(doc["status"] == "max_outer", f"status {doc['status']!r}, expected 'max_outer'")
        summary = doc["summary"]
        require(summary["outer_iterations"] == POWER_MAX_OUTER,
                f"{summary['outer_iterations']} outer iterations, expected {POWER_MAX_OUTER}")
        x = np.asarray(doc["solution"], dtype=float)
        require(x.shape == (summary["n"],) and bool(np.all(np.isfinite(x))),
                "solution is not a finite vector of length n")
        require(bool(np.all(x >= 0.0)), "solution leaves the nonnegative private sets")
        diag = doc["diagnostics"]
        gaps = diag["best_response_gaps"]
        require(len(gaps) == summary["num_players"] and all(math.isfinite(g) for g in gaps),
                f"best-response reference did not certify every player: {diag['notes']}")
        require(all(math.isfinite(v) for v in diag["stationarity"] + diag["complementarity"]),
                "non-finite KKT residual in the result document")
        at_cap = {"final_residual": summary["final_residual"],
                  "feasibility": max(diag["feasibility"]),
                  "best_response_gap": max(abs(g) for g in gaps)}
        for key, value in at_cap.items():
            limit = POWER_SLACK * POWER_AT_CAP[key]
            require(value <= limit, f"{key} {value:.3e} at the cap, limit {limit:.3e}")
        with trace.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == POWER_MAX_OUTER, f"trace CSV has {len(rows)} rows")
        require(sum(int(r["inner_iters"]) for r in rows) == summary["total_inner_iterations"],
                "trace CSV inner_iters do not sum to total_inner_iterations")

    return job


def _certify_job(game, plant) -> Callable[[], None]:
    """Solve from the plant, then certify every player as criterion 7 does."""

    def job():
        res = G.solve(game, plant, fast_config(outer_tol=1e-6, max_outer=30000))
        require(res.status == "converged", f"{game.name}: status {res.status!r}")
        lams = [d.lam for d in res.state.duals]
        for i in range(game.num_players):
            gap = diagnostics.best_response_gap(game, res.state.x, i)
            stat, comp, feas = diagnostics.kkt_residual(game, res.state.x, lams)[i]
            require(abs(gap) <= 1e-3, f"{game.name} player {i}: best-response gap {gap:.3e}")
            require(max(stat, comp, feas) <= 1e-3,
                    f"{game.name} player {i}: KKT residual {max(stat, comp, feas):.3e}")

    return job


def _wide_job(game, plant) -> Callable[[], None]:
    def job():
        res = G.solve(game, plant, fast_config(outer_tol=1e-6, max_outer=WIDE_MAX_OUTER))
        require(res.status == "max_outer" and res.outer_iterations == WIDE_MAX_OUTER,
                f"status {res.status!r} after {res.outer_iterations} outer iterations, "
                f"expected 'max_outer' after {WIDE_MAX_OUTER}")
        x = res.state.x
        require(bool(np.all(np.isfinite(x))), "non-finite iterate")
        for i, p in enumerate(game.players):
            require(p.private_set.contains(x[game.layout.block_slice(i)]),
                    f"player {i} block outside its private set")
        require(res.trace.violations["dual-identity"] == [],
                f"dual-identity violations: {res.trace.violations['dual-identity'][:3]}")

    return job


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------


def build(name: str, seed: int, workdir: Path) -> tuple[list[tuple[str, Callable[[], None]]], int]:
    """Jobs of one workload pass, and the bytes its instances hold."""
    if name == "power-cli":
        game = library.builtin_instance("power")
        return [("power-cli", _power_cli_job(workdir))], instance_bytes(game)
    if name == "quad-certify":
        jobs, nbytes = [], 0
        for si, (N, npp, mpp) in enumerate(QUAD_SHAPES):
            for s in range(4):
                game, plant = library.gen_random_quadratic_with_plant(
                    N, npp, mpp, seed=QUAD_BASE + 7 * s + si)
                jobs.append((game.name, _certify_job(game, plant)))
                nbytes += instance_bytes(game)
        random.Random(seed).shuffle(jobs)
        return jobs, nbytes
    if name == "quad-wide":
        game, plant = library.gen_random_quadratic_with_plant(*WIDE_SHAPE, seed=seed)
        return [(game.name, _wide_job(game, plant))], instance_bytes(game)
    raise KeyError(name)
