"""One pass of a workload in a fresh process, as a CLI user pays it.

Reads the pass description as JSON on stdin, imports ssgraph from the
checkout's ``src``, parses and validates every model (set-up), runs
the jobs one after another (the timed pass) and prints one JSON line
with the timings, the reports' digests and, when traced, the
per-layer metrics.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def _load(job, ssgraph):
    model = job["model"]
    if "doc" in model:
        return ssgraph.cli.parse_model(model["doc"], validate=True)[1]
    if model["build"] == "odometer":
        return ssgraph.models.build_odometer(tuple(model["n"]))
    raise ValueError(f"unknown constructor {model['build']!r}")


def _trace_spec(kms, text):
    if text == "haar":
        return kms.haar_trace()
    if text.startswith("character:"):
        return kms.character_trace(
            [float(t) for t in text[len("character:"):].split(",")])
    raise ValueError(f"unknown trace {text!r}")


def _run(job, system, seed, ssgraph):
    """The library calls the job's CLI verb dispatches to; returns the
    verb's report and the verify_kms (seconds, checked) when it ran."""
    cli, kms = ssgraph.cli, ssgraph.kms
    box, ball = job["box"], job["ball"]
    if job["verb"] == "analyze":
        return cli.run_analysis(system.graph, system, box, ball), None
    summary = kms.simplex_summary(system, box, ball)
    doc = {"exists": summary.exists, "rank": summary.rank,
           "verdict": summary.verdict,
           "basis": [list(v) for v in summary.basis or ()]}
    verify = None
    if summary.exists:
        state = kms.make_kms_state(system, trace=_trace_spec(kms, job["trace"]),
                                   box_radius=box, ball_radius=ball)
        start = time.perf_counter()
        report = kms.verify_kms(state, sample_count=job["samples"], seed=seed)
        verify = (time.perf_counter() - start, report.checked)
        doc["verify"] = {"ok": report.ok, "maxDeviation": report.max_deviation,
                         "checked": report.checked}
    return doc, verify


def main() -> int:
    spec = json.load(sys.stdin)
    import ssgraph
    import ssgraph.cli
    import ssgraph.kms
    import ssgraph.models

    tracer = None
    if spec["trace"]:
        import layers
        tracer = layers.Tracer()
        tracer.install(ssgraph)
    systems = [_load(job, ssgraph) for job in spec["jobs"]]
    ready = time.perf_counter()
    results = []
    for job, system in zip(spec["jobs"], systems):
        start = time.perf_counter()
        entry = {"name": job["name"]}
        try:
            report, verify = _run(job, system, spec["seed"], ssgraph)
            entry["digest"] = hashlib.sha256(
                ssgraph.cli.canonical_bytes(report)).hexdigest()
            entry["report"] = report
            if verify:
                entry["verify_s"], entry["checked"] = verify
        except Exception as err:  # a failed job is counted, not fatal
            entry["error"] = f"{type(err).__name__}: {err}"
        entry["seconds"] = time.perf_counter() - start
        results.append(entry)
    out = {
        "setup_s": ready - spec["spawn_t"],
        "wall_s": time.perf_counter() - ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "jobs": results,
    }
    if tracer is not None:
        out["layers"] = layers.metrics(tracer)
        out["layer_self_s"] = layers.layer_self_seconds(tracer)
        out["top_edges"] = layers.top_edges(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
