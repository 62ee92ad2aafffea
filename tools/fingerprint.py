"""Fingerprint solver runs field by field, and diff two checkouts.

Each run of a fixed set is solved and every recorded field is hashed
(SHA-256): the status and outer-iteration count, the final x, the exported
duals z, lam and mu (``solve`` carries lam alone and exports z as zeros and
mu as a copy of lam), every trace column (one per ``TraceRow`` field), the
initial trace fields, the exit census, the violation counts and the kept
violation messages; for a game with stacked quadratic data, also every
array of its stack (``G``, each run's ``bands``, ``b``, ``C``, ``D``,
``dense`` and each curved player's ``hessians``) and its dense players, so
a diff covers the build as well as the solve. The run set, with the
solver configuration each is run with elsewhere:

- the twenty planted quadratic games of the test suite and of the
  quad-certify workload, and the quad-wide game (40 players) at seeds 1-3
  under quad-wide's budget: shapes, seeds and configuration are imported
  from ``perfbench/workloads.py``;
- one random-quadratic game with four constraint rows per player and
  one-variable blocks (3x1x4, seed 101) from its plant, as the quad-suite
  games are run: its own-block Jacobian products sum four or more rows;
- the test suite's a18, Arrow-Debreu and example3 runs (example3 from its
  three starts, and tightly from the origin), with the starts from
  ``tests/conftest.py``;
- two runs that end in an oracle failure mid-run, as the test suite runs
  them: example3 diverging from the origin under a fixed gamma of 0.5 (at
  iteration 6), and the free-affine game of ``tests/conftest.py`` from
  ``(1, 1)`` under a fixed gamma of 0.1, whose objective value overflows
  past two blocks of trace rows while its gradients stay finite (137 rows);
- random-quadratic from ``const:0`` under the default configuration, as
  the test suite runs it: a stall stop at iteration 297, inside a block of
  trace rows, whose later rows the loop ran are dropped;
- power from ``const:5`` at 400 outer iterations, as the test suite runs it,
  and the same run with its batched oracle detached
  (``detach_batched_oracle`` of ``tests/conftest.py``), whose sweeps take
  the per-player oracle loop, through several resamples;
- power-cli's run: power from ``const:0`` under the CLI's default
  configuration, capped at ``POWER_MAX_OUTER`` outer iterations, as the
  power-cli workload solves it (its iterate stays in the first sampled box);
- every built-in from ``const:0.5`` at 400 outer iterations.

    PYTHONPATH=src python tools/fingerprint.py            # hashes of this checkout
    python tools/fingerprint.py --diff OLD NEW              # two checkouts, field by field

The run set is always this checkout's; ``--diff`` solves it once with each
checkout's ``src`` (and checks that each side imported its own
``gnepsolve``), and prints, over the runs and fields of both sides, every
field that differs, with its largest relative change when it is numeric,
and every run or field that one side lacks, as ``only in old`` or ``only in
new``. Set ``OPENBLAS_NUM_THREADS=1`` for reproducible bits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np


ROOT = Path(__file__).resolve().parent.parent


def run_set():
    """``(name, game, x0, config)`` of every run, in a fixed order."""
    sys.path += [str(ROOT), str(ROOT / "tests")]
    import gnepsolve as G
    from gnepsolve import library
    from conftest import ad_start, detach_batched_oracle, free_affine_game
    from perfbench.workloads import (POWER_MAX_OUTER, QUAD_BASE, QUAD_SHAPES, WIDE_MAX_OUTER,
                                     WIDE_SHAPE, fast_config)

    runs = []
    for si, (N, npp, mpp) in enumerate(QUAD_SHAPES):
        for s in range(4):
            game, plant = library.gen_random_quadratic_with_plant(
                N, npp, mpp, seed=QUAD_BASE + 7 * s + si)
            runs.append((f"quad-suite/{game.name}", game, plant,
                         fast_config(outer_tol=1e-6, max_outer=30000)))
    for seed in (1, 2, 3):
        game, plant = library.gen_random_quadratic_with_plant(*WIDE_SHAPE, seed=seed)
        runs.append((f"quad-wide/s{seed}", game, plant,
                     fast_config(outer_tol=1e-6, max_outer=WIDE_MAX_OUTER)))
    game, plant = library.gen_random_quadratic_with_plant(3, 1, 4, seed=101)
    runs.append((f"rows4/{game.name}", game, plant, fast_config(outer_tol=1e-6, max_outer=30000)))
    a18 = library.make_a18_electricity()
    runs.append(("a18", a18, np.zeros(a18.n), fast_config(max_outer=2500)))
    ex3 = library.make_example3()
    for x0 in [(0.0, 0.0), (2.0, 1.0), (-1.0, -1.0)]:
        runs.append((f"example3/{x0}", ex3, np.array(x0), G.SolverConfig()))
    runs.append(("example3/tight", ex3, np.zeros(2),
                 fast_config(outer_tol=1e-8, max_outer=40000)))
    runs.append(("example3/diverging", ex3, np.zeros(2),
                 G.SolverConfig(gamma=G.GammaPolicy.fixed(0.5), max_outer=200)))
    runs.append(("free-affine", free_affine_game(), np.ones(2),
                 G.SolverConfig(gamma=G.GammaPolicy.fixed(0.1))))
    ad = library.gen_arrow_debreu(5, 2, 3, seed=0)
    gamma = G.GammaPolicy.fixed(np.array([30.0] * 5 + [260.0] * 2 + [300.0]))
    runs.append(("arrow-debreu", ad, ad_start(ad), fast_config(max_outer=60000, gamma=gamma)))
    rq = library.builtin_instance("random-quadratic")
    runs.append(("random-quadratic/const:0", rq, np.zeros(rq.n), G.SolverConfig()))
    power = library.builtin_instance("power")
    runs.append(("power/const:5", power, np.full(power.n, 5.0), G.SolverConfig(max_outer=400)))
    per_player = detach_batched_oracle(library.builtin_instance("power"))
    runs.append(("power/per-player/const:5", per_player, np.full(per_player.n, 5.0),
                 G.SolverConfig(max_outer=400)))
    runs.append(("power-cli", power, np.zeros(power.n), G.SolverConfig(max_outer=POWER_MAX_OUTER)))
    for name in library.BUILTIN_NAMES:
        game = library.builtin_instance(name)
        runs.append((f"builtin/{name}@0.5", game, np.full(game.n, 0.5),
                     G.SolverConfig(max_outer=400)))
    return runs


def trace_columns(trace) -> dict[str, np.ndarray]:
    """The columns of a non-empty trace; a checkout from before the trace
    held columns (a ``--diff`` side) has its rows stacked field by field."""
    if hasattr(trace, "columns"):
        return trace.columns
    return {f.name: np.array([getattr(r, f.name) for r in trace.rows])
            for f in fields(trace.rows[0])}


def record(res) -> dict[str, object]:
    """Every fingerprinted field of one solve result."""
    out: dict[str, object] = {"status": res.status, "outer_iterations": res.outer_iterations,
                              "x": res.state.x}
    d = res.state.duals
    out.update(z=d.z, lam=d.lam, mu=d.mu)
    columns = trace_columns(res.trace) if res.outer_iterations else {}
    for name, col in columns.items():
        out[f"row.{name}"] = col.tolist() if name == "exit_kind" else col.astype(float)
    for name in ("initial_L", "initial_feas", "initial_jac_norm", "initial_jac_own_norm"):
        out[f"trace.{name}"] = np.asarray(getattr(res.trace, name), dtype=float)
    labels = columns["exit_kind"].tolist() if columns else []
    out["exit_census"] = dict(sorted(Counter(labels).items()))
    out["violation_counts"] = dict(sorted(res.trace.violation_counts.items()))
    out["violations"] = dict(sorted(res.trace.violations.items()))
    return out


def stack_record(game) -> dict[str, object]:
    """Every fingerprinted array of ``game``'s stacked quadratic data; none
    for a game without it."""
    q = game.quadratic
    if q is None:
        return {}
    out: dict[str, object] = {f"stack.{k}": getattr(q, k) for k in ("G", "b", "C", "D", "dense")}
    out.update({f"stack.bands[{k}]": K for k, K in enumerate(q.bands)})
    out.update({f"stack.hessians[{i}]": A for i, A in sorted(q.hessians.items())})
    out["stack.dense_players"] = list(q.dense_players)
    return out


def digest(value) -> str:
    if isinstance(value, np.ndarray):
        data = str(value.shape).encode() + np.ascontiguousarray(value).tobytes()
    else:
        data = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def fingerprint(save: Path | None = None) -> dict[str, dict[str, str]]:
    """Solve the run set here; print and return each field's hash, and
    save the numeric fields to ``save`` (an ``.npz``) when given."""
    import gnepsolve as G

    print(f"gnepsolve\t{G.__file__}")
    hashes, arrays = {}, {}
    for name, game, x0, config in run_set():
        rec = {**record(G.solve(game, x0, config)), **stack_record(game)}
        hashes[name] = {k: digest(v) for k, v in rec.items()}
        for k, v in rec.items():
            print(f"{name}\t{k}\t{hashes[name][k]}")
            if isinstance(v, np.ndarray):
                arrays[f"{name}|{k}"] = v
    if save is not None:
        np.savez(save, **arrays)
    return hashes


def largest_relative_change(old: np.ndarray, new: np.ndarray) -> float:
    if old.shape != new.shape:
        return float("inf")
    scale = np.maximum(np.abs(old), np.abs(new))
    diff = np.abs(new - old)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0, 0.0, diff / scale)
    return float(np.nanmax(rel, initial=0.0))


def diff(old: Path, new: Path) -> int:
    """Fingerprint both checkouts and print every field that differs;
    returns the number of differing fields."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for side, root in (("old", old), ("new", new)):
            save = Path(tmp) / f"{side}.npz"
            env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"))
            proc = subprocess.run([sys.executable, __file__, "--json", "--save", str(save)],
                                  env=env, capture_output=True, text=True, check=True)
            imported = Path(proc.stdout.splitlines()[0].split("\t")[1]).resolve()
            if not imported.is_relative_to(root.resolve()):
                raise RuntimeError(f"{side} side imported {imported}, not from {root}")
            with np.load(save) as npz:
                results.append((json.loads(proc.stdout.splitlines()[-1]), dict(npz)))
    (old_h, old_a), (new_h, new_a) = results
    changed = 0
    runs = list({**old_h, **new_h})   # old's order, then runs only in new
    for name in runs:
        if name not in old_h or name not in new_h:
            side = "old" if name in old_h else "new"
            print(f"{name}: run only in {side}")
            changed += len((old_h if side == "old" else new_h)[name])
            continue
        old_f, new_f = old_h[name], new_h[name]
        fields_changed = [k for k in {**old_f, **new_f} if old_f.get(k) != new_f.get(k)]
        if not fields_changed:
            print(f"{name}: identical ({len(old_f)} fields)")
        for k in fields_changed:
            key = f"{name}|{k}"
            if k not in old_f or k not in new_f:
                print(f"{name}: {k} only in {'old' if k in old_f else 'new'}")
                continue
            size = ""
            if key in old_a and key in new_a:
                rel = largest_relative_change(old_a[key], new_a[key])
                size = f", largest relative change {rel:.3g}"
            print(f"{name}: {k} differs{size}")
        changed += len(fields_changed)
    print(f"{changed} differing fields over {len(runs)} runs")
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), type=Path,
                        help="fingerprint two checkouts and print the fields that differ")
    parser.add_argument("--json", action="store_true",
                        help="end with one JSON line of all hashes")
    parser.add_argument("--save", type=Path, help="save the numeric fields to this .npz")
    args = parser.parse_args(argv)
    if args.diff:
        return 1 if diff(*args.diff) else 0
    hashes = fingerprint(args.save)
    if args.json:
        print(json.dumps(hashes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
