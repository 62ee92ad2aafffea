"""Time two checkouts' solves side by side in one process.

    OPENBLAS_NUM_THREADS=1 python tools/abtime.py A B --workload quad-certify --pairs 20

Each checkout's ``gnepsolve`` is loaded from its ``src`` under a module name
of its own, and each side builds the workload's instances with its own
generators from the constants of this checkout's ``perfbench/workloads.py``:

- ``quad-certify``: the twenty planted quadratic games, solved from their
  plants as the workload's jobs solve them (the certification is not run);
- ``quad-wide``: the 40-player game drawn with ``--seed``, run for the
  workload's budget of outer iterations;
- ``power-cli``: power from ``const:0`` under the CLI's default
  configuration, capped at ``POWER_MAX_OUTER`` outer iterations, as the
  workload's ``gnepsolve solve`` call solves it (its diagnostics, result
  document and trace CSV are not made).

A pair is one pass of every solve on each side; the side that runs first
alternates from pair to pair. The script prints each side's minimum and
median microseconds per outer iteration (a pass's time over its outer
iterations), the median and quartiles of the paired ratio B / A, a seeded
bootstrap 90% interval of that median (how finely the pairs resolve it: a
bound inside the interval passes or fails by the run), the share of pairs
that B ran faster, each side's output hash (SHA-256 over every solve's
status, iteration count, ``x``, ``lam`` and trace columns), each side's
shortest pass in milliseconds and how many of its passes are shorter than
perfbench's speed-sample period ``PASS_PERIOD_S`` (a pass here is the
solves alone, while perfbench's pass also runs the job's checks, so the
count warns of a pass too short to sample and does not predict one), and
the verdict of the benchmark's pair rule for a gain of B over A (B faster
in at least 9 of 10 pairs, and A's median time above B's by more than the
spread between A's quartiles), then one JSON line of the same, with every
pair's ratio.
Within one process both sides see the same machine load, so a pair
resolves differences of a few percent that separate benchmark processes,
minutes apart, do not.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load(root: Path, name: str):
    """``gnepsolve`` from ``root/src``, imported as the package ``name``."""
    init = root.resolve() / "src" / "gnepsolve" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def runs(G, workload: str, seed: int) -> list:
    """``(game, x0, config)`` of every solve of one pass, built by ``G``."""
    from perfbench.workloads import (POWER_MAX_OUTER, QUAD_BASE, QUAD_SHAPES, WIDE_MAX_OUTER,
                                     WIDE_SHAPE)

    def config(max_outer):   # perfbench's fast_config, less its sigma, which no solve reads
        return G.SolverConfig(outer_tol=1e-6, max_outer=max_outer)

    if workload == "power-cli":
        game = G.library.builtin_instance("power")
        return [(game, np.zeros(game.n), G.SolverConfig(max_outer=POWER_MAX_OUTER))]
    if workload == "quad-wide":
        return [(*G.library.gen_random_quadratic_with_plant(*WIDE_SHAPE, seed=seed),
                 config(WIDE_MAX_OUTER))]
    return [(*G.library.gen_random_quadratic_with_plant(N, npp, mpp, seed=QUAD_BASE + 7 * s + si),
             config(30000))
            for si, (N, npp, mpp) in enumerate(QUAD_SHAPES) for s in range(4)]


def one_pass(G, solves) -> tuple[float, str, float]:
    """Microseconds per outer iteration of one pass, its output hash, and
    its length in seconds."""
    gc.collect()
    digest, iterations, elapsed = hashlib.sha256(), 0, 0.0
    for game, x0, cfg in solves:
        t0 = time.perf_counter()
        res = G.solve(game, x0, cfg)
        elapsed += time.perf_counter() - t0
        iterations += res.outer_iterations
        digest.update(f"{res.status}/{res.outer_iterations}".encode())
        for a in (res.state.x, res.state.duals.lam, *res.trace.columns.values()):
            digest.update(a.tobytes())
    return elapsed / iterations * 1e6, digest.hexdigest(), elapsed


def pass_lengths(seconds: list[float]) -> dict:
    """The shortest of a side's passes in milliseconds, and how many of them
    are shorter than one of perfbench's speed samples."""
    from perfbench.speed import PASS_PERIOD_S
    return dict(min_pass_ms=min(seconds) * 1e3,
                short_passes=sum(s < PASS_PERIOD_S for s in seconds))


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def median_interval(values: list[float]) -> list[float]:
    """Percentile bootstrap 90% interval of the median of ``values``: the
    medians of 10,000 resamples with replacement, drawn from seed 0, cut at
    their 5% and 95% quantiles."""
    rng = np.random.default_rng(0)
    medians = np.median(rng.choice(np.asarray(values, dtype=float), (10000, len(values))), axis=1)
    return np.quantile(medians, [0.05, 0.95]).tolist()


def pair_rule(a: list[float], b: list[float]) -> dict:
    """The pair rule on paired times ``a`` and ``b``: the share of pairs B
    won against the 9-in-10 bar, and the gap between the medians against
    the spread between A's quartiles; ``holds`` when both clear."""
    q1, _, q3 = quartiles(a)
    share = sum(y < x for x, y in zip(a, b)) / len(a)
    gap = statistics.median(a) - statistics.median(b)
    return dict(b_faster=share, median_gap_us=gap, a_quartile_spread_us=q3 - q1,
                holds=share >= 0.9 and gap > q3 - q1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A (the reference)")
    parser.add_argument("b", type=Path, help="checkout B")
    parser.add_argument("--workload", choices=("quad-certify", "quad-wide", "power-cli"),
                        default="quad-certify")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1, help="quad-wide's instance seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]   # perfbench.workloads imports gnepsolve
    sides = {}
    for key, root in (("A", args.a), ("B", args.b)):
        G = load(root, f"gnepsolve_ab_{key.lower()}")
        sides[key] = (G, runs(G, args.workload, args.seed))
    times, hashes, lengths = {"A": [], "B": []}, {"A": set(), "B": set()}, {"A": [], "B": []}
    for pair in range(args.pairs):
        for key in ("AB" if pair % 2 == 0 else "BA"):
            us, digest, seconds = one_pass(*sides[key])
            times[key].append(us)
            hashes[key].add(digest)
            lengths[key].append(seconds)
    ratios = [b / a for a, b in zip(times["A"], times["B"])]
    out = {key: {"min_us": min(times[key]), "median_us": statistics.median(times[key]),
                 "hash": sorted(hashes[key]), **pass_lengths(lengths[key])} for key in ("A", "B")}
    rule = pair_rule(times["A"], times["B"])
    out.update(ratios=ratios, ratio_quartiles=quartiles(ratios),
               ratio_interval=median_interval(ratios), b_faster=rule["b_faster"],
               same_output=hashes["A"] == hashes["B"] and len(hashes["A"]) == 1, pair_rule=rule)
    for key, root in (("A", args.a), ("B", args.b)):
        side = out[key]
        print(f"{key} {root}: min {side['min_us']:.2f} us, median {side['median_us']:.2f} us "
              f"per outer iteration; output {', '.join(h[:16] for h in side['hash'])}; "
              f"shortest pass {side['min_pass_ms']:.2f} ms, {side['short_passes']} of "
              f"{args.pairs} under perfbench's speed-sample period")
    (q1, med, q3), (lo, hi) = out["ratio_quartiles"], out["ratio_interval"]
    print(f"B / A over {len(ratios)} pairs: median {med:.4f} (quartiles {q1:.4f}, {q3:.4f}; "
          f"bootstrap 90% interval {lo:.4f}, {hi:.4f}); B faster in {out['b_faster']:.0%}; "
          f"same output: {out['same_output']}")
    print(f"pair rule: B faster in {rule['b_faster']:.0%} of pairs (bar 90%), median gap "
          f"{rule['median_gap_us']:.2f} us against A's quartile spread "
          f"{rule['a_quartile_spread_us']:.2f} us: {'holds' if rule['holds'] else 'fails'}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
