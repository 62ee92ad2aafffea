"""The repository's tools, run as their users run them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    # one pair: A's quartiles are its one time, so the rule's spread is 0
    assert out["pair_rule"]["a_quartile_spread_us"] == 0.0
    assert "pair rule: B faster in" in proc.stdout
    # each side's one pass: its length, and whether it is under one speed sample
    for side in (out["A"], out["B"]):
        assert side["min_pass_ms"] > 0 and side["short_passes"] in (0, 1)
    assert proc.stdout.count("under perfbench's speed-sample period") == 2


def test_abtime_pass_lengths_count_the_passes_under_one_speed_sample():
    # perfbench's own period, not a copy: a pass of exactly one period is not short
    sys.path[:0] = [str(ROOT), str(ROOT / "tools")]
    try:
        import abtime
        from perfbench.speed import PASS_PERIOD_S
    finally:
        del sys.path[:2]
    seconds = [0.5 * PASS_PERIOD_S, PASS_PERIOD_S, 0.03, 0.9 * PASS_PERIOD_S]
    lengths = abtime.pass_lengths(seconds)
    assert lengths == {"min_pass_ms": 0.5 * PASS_PERIOD_S * 1e3, "short_passes": 2}


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


def test_abtime_pair_rule_verdict_on_fixed_ratios():
    # A's ten times have median 101.5 us and quartiles 99.25 and 103.75 (a
    # spread of 4.5 us). B at 0.9 of A in nine pairs and 1.01 in one wins 9
    # of 10 with its median 10.15 us below A's: the rule holds. At 0.97 in
    # every pair the gap, 3.045 us, is inside A's spread, and at 0.9 in only
    # eight pairs B wins 8 of 10: both fail
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import abtime
    finally:
        del sys.path[0]
    a = [100.0, 102.0, 98.0, 104.0, 101.0, 99.0, 103.0, 105.0, 97.0, 106.0]

    def rule(ratios):
        return abtime.pair_rule(a, [t * r for t, r in zip(a, ratios)])

    held = rule([0.9] * 9 + [1.01])
    assert held["holds"] is True and held["b_faster"] == 0.9
    assert held["median_gap_us"] == pytest.approx(10.15)
    assert held["a_quartile_spread_us"] == pytest.approx(4.5)
    narrow = rule([0.97] * 10)
    assert narrow["b_faster"] == 1.0 and narrow["median_gap_us"] == pytest.approx(3.045)
    assert narrow["holds"] is False
    assert rule([0.9] * 8 + [1.01] * 2)["holds"] is False
