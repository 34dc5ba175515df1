"""The benchmark harness runs end to end on the current source."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ssgraph import kms
from ssgraph.cli import parse_model

ROOT = Path(__file__).resolve().parent.parent


def bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


# (checked, nonzero, repr(max_deviation)) of each kms-eval job of the
# bench at workload seeds 1, 2 and 3; the bench checks only ``ok`` and
# ``checked`` of these reports
KMS_JOBS = {
    "odometer-22-kms": [(26744, 400, "0.0"), (26744, 400, "0.0"),
                        (26744, 399, "0.0")],
    "katsura-kms": [(4596, 48, "0.0")] * 3,
    "adding-machine-kms": [(4324, 48, "0.0"), (4324, 62, "0.0"),
                           (4324, 66, "0.0")],
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_kms_jobs_are_pinned(seed):
    # the calls bench/worker.py makes for a kms-eval job
    workloads = bench_workloads()
    got = {}
    for workload in ("path-layer", "group-ball"):
        for job in workloads.jobs(workload, seed):
            if job["verb"] != "kms-eval":
                continue
            system = parse_model(job["model"]["doc"], validate=True)[1]
            trace = (kms.haar_trace() if job["trace"] == "haar" else
                     kms.character_trace([float(t) for t in job[
                         "trace"].removeprefix("character:").split(",")]))
            state = kms.make_kms_state(system, trace, job["box"],
                                       job["ball"])
            report = kms.verify_kms(state, sample_count=job["samples"],
                                    seed=seed)
            got[job["name"]] = (report.checked, report.nonzero,
                                repr(report.max_deviation))
    assert got == {name: pins[seed - 1] for name, pins in KMS_JOBS.items()}
