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
