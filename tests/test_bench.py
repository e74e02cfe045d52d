"""The benchmark harness runs against this tree: a smoke test of one traced
round, which wraps the package's public entry points by name and pins the
number of checks ``verify`` reports."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_pipeline_round_is_correct():
    argv = [sys.executable, "bench/run.py", "--workload", "sweep-planned",
            "--seconds", "0", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
