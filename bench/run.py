"""Benchmark of the ssgraph analysis pipeline.

    python3 bench/run.py --workload path-layer --seed 1 --seconds 56 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a
fresh child process (``bench/worker.py``) that imports ssgraph from
``src``, parses and validates the workload's models and then runs its
jobs one after another, with no threads: a closed loop with one client,
as a user invoking the CLI once per model pays it.  Passes repeat until
``--seconds`` have been spent (at least three).  ``setup_s`` and
``peak_rss_mb`` are medians over the passes.  ``wall_s`` is the wall
time of all passes divided by their number, and ``pairs_per_s`` the
pairs verified in all passes divided by the verify_kms time of all
passes.  A shared host's speed drifts between levels that each last
from seconds to minutes; a median of a run's passes jumps to whichever
level held most of them, while the whole-run mean weighs each level by
the time it held.

``--trace 0`` prints the end-to-end metrics (see BENCHMARK.json).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (``bench/layers.py``) together
with ``trace.overhead_s``, the traced minus the untraced pass time.

Every answer is checked against an expectation the benchmark derives
on its own (``bench/workloads.py``).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every pass completed.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

MIN_PASSES = 3
DEADLINE_S = 170          # a run must end within 180 s
DIGESTS = HERE / "digests.json"

# ROADMAP baseline rows this benchmark overlaps: (row, low s, high s,
# job, measured field, how the two measurements differ).
BASELINE = (
    ("run_analysis odometer (6,2,3), box 4", 1.8, 2.1,
     "odometer-623-doc", "seconds",
     "the baseline ran every case in one process; here each pass is a "
     "fresh process, and the document path runs the generic word engine"),
    ("run_analysis odometer (6,2,3), box 4", 1.8, 2.1,
     "odometer-623-exact", "seconds",
     "the baseline ran every case in one process; here each pass is a "
     "fresh process"),
    ("run_analysis odometer (2,2)/(4,2), box 8", 0.24, 0.24,
     "odometer-22-doc", "seconds",
     "here (2,2) goes through the document path and the generic word "
     "engine"),
    ("verify_kms(odo22, 500), character", 3.9, 3.9,
     "odometer-22-kms", "verify_s",
     "the baseline drew its 500 samples from verify_kms's default seed; "
     "here they come from the workload seed"),
    ("Grigorchuk word_ball(9), generic engine", 2.4, 2.4,
     "grigorchuk", "seconds",
     "not the same case: here a whole analyze at ball 8, whose group work "
     "is the ball plus its restriction closure"),
)


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy, "cpu": cpu}


def run_pass(jobs: list[dict], seed: int, trace: bool,
             deadline: float) -> dict:
    """One pass in a fresh child process; raises when the child fails."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spawn_t = time.perf_counter()
    spec = {"seed": seed, "trace": trace, "spawn_t": spawn_t,
            "jobs": [{k: v for k, v in job.items() if k != "expect"}
                     for job in jobs]}
    timeout = deadline - spawn_t
    if timeout <= 0:
        raise TimeoutError("no time left for another pass")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(spec), capture_output=True,
                          text=True, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return p, statistics.quantiles(values, n=1000)[round(p * 10) - 1]
    return None


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def pairs_per_s(samples: list[dict]) -> float:
    """Verified pairs over verify_kms time, summed over every pass of
    the run, so that short verifications are timed over the whole run
    rather than one pass each; 0 only when every verification failed."""
    verified = [j for s in samples for j in s["jobs"] if "verify_s" in j]
    seconds = sum(j["verify_s"] for j in verified)
    return sum(j["checked"] for j in verified) / seconds if seconds else 0.0


def describe(name: str, unit: str, values: list[float]) -> str:
    text = (f"  {name:<12} mean {statistics.fmean(values):.4f} {unit}, "
            f"median {statistics.median(values):.4f} {unit}")
    found = tail(values)
    if found:
        text += f", p{found[0]:g} {found[1]:.4f} {unit}"
    else:
        text += ", no percentile has ten samples beyond it"
    return text + f" (n={len(values)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    facts = machine_facts()
    try:
        jobs = workloads.jobs(args.workload, args.seed)
    except ImportError as err:
        print(f"error: cannot import ssgraph from src: {err}", file=sys.stderr)
        return 2
    print(f"machine: nproc={facts['nproc']} python={facts['python']} "
          f"numpy={facts['numpy']} cpu={facts['cpu']!r}")
    print(f"workload {args.workload} (seed {args.seed}): "
          f"{WHY[args.workload]}")

    plain: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            plain.append(run_pass(jobs, args.seed, False, deadline))
            if args.trace:
                traced.append(run_pass(jobs, args.seed, True, deadline))
            elapsed = time.perf_counter() - start
            per_pass = elapsed / len(plain)
            if len(plain) >= MIN_PASSES and \
                    elapsed + per_pass > args.seconds:
                break
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted = failed = 0
    for sample in plain + traced:
        for job, result in zip(jobs, sample["jobs"]):
            attempted += 1
            problems = workloads.check(job, result)
            if problems:
                failed += 1
                print(f"  FAILED {job['name']}: {'; '.join(problems)}")
    print(f"{len(plain)} untraced and {len(traced)} traced passes in "
          f"{time.perf_counter() - start:.1f} s, one fresh process each")

    walls = [s["wall_s"] for s in plain]
    if args.trace:
        metrics = layer_metrics(traced, walls)
    else:
        setups = [s["setup_s"] for s in plain]
        rss = [s["peak_rss_mb"] for s in plain]
        rate = pairs_per_s(plain)
        print(describe("wall_s", "s", walls))
        print(describe("setup_s", "s", setups))
        print(describe("peak_rss_mb", "MB", rss))
        inputs = ", ".join(
            f"{job['name']} {job['expect']['small']}^2 + {job['samples']} = "
            f"{job['expect']['pairs']} pairs"
            for job in jobs if job["verb"] == "kms-eval")
        print(f"  pairs_per_s  {rate:.1f} 1/s over {len(plain)} passes of "
              f"{inputs}")
        metrics = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "pairs_per_s": {"value": rate, "unit": "1/s"},
        }
    print(f"  error_rate   {failed}/{attempted} = {failed / attempted:g}")
    report_jobs(jobs, plain)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report_jobs(jobs: list[dict], plain: list[dict]) -> None:
    """Per-job medians, report digests and the ROADMAP baseline rows."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    per_job = {}
    for i, job in enumerate(jobs):
        seconds = [s["jobs"][i]["seconds"] for s in plain]
        verify = [s["jobs"][i]["verify_s"] for s in plain
                  if "verify_s" in s["jobs"][i]]
        per_job[job["name"]] = {"seconds": seconds, "verify_s": verify}
        digests = {s["jobs"][i].get("digest") for s in plain}
        digest = digests.pop() if len(digests) == 1 else "varies by pass"
        old = recorded.get(job["name"])
        state = "not recorded" if old is None else \
            "same as recorded" if digest == old else f"DRIFT from {old}"
        extra = f", verify_kms {statistics.median(verify):.3f} s" \
            if verify else ""
        witness = pseudo_free_witness(plain[0]["jobs"][i])
        print(f"  job {job['name']:<25} median {statistics.median(seconds):.3f}"
              f" s{extra}{witness}\n      report sha256 {digest} {state}")
    for row, low, high, name, field, why in BASELINE:
        if name not in per_job or not per_job[name][field]:
            continue
        values = per_job[name][field]
        mid = statistics.median(values)
        gap = mid - high if mid > high else mid - low if mid < low else 0.0
        line = (f"  baseline {row}: ROADMAP {low:g}-{high:g} s, "
                f"here {name} {mid:.3f} s")
        if abs(gap) > spread(values):
            line += f"; gap {gap:+.3f} s exceeds the spread: {why}"
        print(line)


def pseudo_free_witness(result: dict) -> str:
    """The witness as reported; ROADMAP lists its being empty as a
    known defect, so it is shown and never checked."""
    hyp = (result.get("report") or {}).get("hypotheses", {})
    if "pseudoFreeWitness" in hyp:
        return f"; pseudoFreeWitness {hyp['pseudoFreeWitness']!r}"
    return ""


def layer_metrics(traced: list[dict], walls: list[float]) -> dict:
    """Per-layer medians over the traced passes, each a measured value;
    prints the self time per module and the heaviest span edges."""
    out = {name: {"value": statistics.median_low(
                      s["layers"][name] for s in traced),
                  "unit": LAYER_UNITS[name]}
           for name in traced[0]["layers"]}
    overhead = statistics.fmean(s["wall_s"] for s in traced) - \
        statistics.fmean(walls)
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    split = {m: statistics.median(s["layer_self_s"][m] for s in traced)
             for m in traced[0]["layer_self_s"]}
    total = sum(split.values())
    print("  layer self time: " + ", ".join(
        f"{m} {v:.3f} s ({v / total:.0%})"
        for m, v in sorted(split.items(), key=lambda kv: -kv[1])))
    print("  heaviest spans (parent -> span, calls, self s):")
    for parent, name, calls, self_s in traced[0]["top_edges"]:
        print(f"    {parent} -> {name}: {calls}, {self_s:.3f}")
    print(f"  trace.overhead_s {overhead:.3f} s")
    return out


if __name__ == "__main__":
    sys.exit(main())
