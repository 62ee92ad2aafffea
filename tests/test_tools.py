"""The repository's tools, run as their users run them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_abtime_runs_one_checkout_against_itself():
    # both sides load this checkout's package under names of their own and
    # solve the same instances: one pair of quad-wide passes, equal hashes
    proc = subprocess.run([sys.executable, "tools/abtime.py", ".", ".", "--workload", "quad-wide",
                           "--pairs", "1"], cwd=ROOT, capture_output=True, text=True, check=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["same_output"] is True
    assert len(out["A"]["hash"]) == 1 and out["A"]["hash"] == out["B"]["hash"]
    assert 0 < out["A"]["min_us"] and 0 < out["B"]["min_us"]
    assert "same output: True" in proc.stdout
    # one pair: the bootstrap interval of the median ratio is that pair's ratio
    lo, hi = out["ratio_interval"]
    assert [lo] == [hi] == out["ratios"] == [out["ratio_quartiles"][1]]
    assert "bootstrap 90% interval" in proc.stdout


def test_abtime_times_power_cli_as_the_workload_solves_it():
    # the CLI's default solve of power, capped at the workload's outer
    # iterations: one pair, equal hashes, and the hash of that very solve
    proc = subprocess.run([sys.executable, "tools/abtime.py", ".", ".", "--workload", "power-cli",
                           "--pairs", "1"], cwd=ROOT, capture_output=True, text=True, check=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["same_output"] is True
    sys.path[:0] = [str(ROOT), str(ROOT / "tools")]
    try:
        import abtime
        from perfbench.workloads import POWER_MAX_OUTER
    finally:
        del sys.path[:2]
    import gnepsolve as G
    from gnepsolve import cli
    game = G.library.builtin_instance("power")
    solves = abtime.runs(G, "power-cli", 1)
    assert len(solves) == 1 and solves[0][0].name == game.name
    _, x0, cfg = solves[0]
    assert x0.tolist() == [0.0] * game.n
    args = cli.build_parser().parse_args(["solve", "--problem", "power", "--x0", "const:0",
                                          "--max-outer", str(POWER_MAX_OUTER)])
    assert cfg == cli._build_config(args)
    assert out["A"]["hash"] == [abtime.one_pass(G, solves)[1]]


def test_abtime_bootstrap_interval_of_the_median_ratio():
    # seeded: the same ratios give the same interval; it holds the sample
    # median, lies within the ratios' range, narrows as the pairs agree, and
    # is one point when every ratio is equal
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import abtime
    finally:
        del sys.path[0]
    rng = np.random.default_rng(0)
    ratios = list(0.85 + 0.05 * rng.standard_normal(40))
    lo, hi = abtime.median_interval(ratios)
    assert [lo, hi] == abtime.median_interval(ratios)
    assert min(ratios) <= lo <= np.median(ratios) <= hi <= max(ratios)
    tight = abtime.median_interval([0.85 + 0.1 * (r - 0.85) for r in ratios])
    assert tight[1] - tight[0] < hi - lo
    assert abtime.median_interval([0.9] * 16) == [0.9, 0.9]
