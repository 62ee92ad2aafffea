"""The repository's tools, run as their users run them."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
