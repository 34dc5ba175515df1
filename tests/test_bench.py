"""The benchmark harness runs end to end on the current source."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["path-layer", "group-ball"])
def test_bench_workload_runs_traced(workload):
    # three untraced and three traced passes: a function that the tracer
    # wraps or the worker calls, renamed or re-signed, fails here
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
