"""Run one benchmark workload in this (fresh, single-threaded) process.

Started by ``run.py``, never by hand.  Prints ``ready`` once the set-up is
done (imports, backend warm-up, inputs), then runs whole rounds of the
workload until ``--seconds`` have passed and prints one JSON line.

Untraced, every round is timed.  With ``--trace 1`` rounds alternate
between untraced and traced (``tracing.Tracer`` installed); the per-layer
figures come from the traced rounds and ``trace.overhead_s`` is the
difference of the two kinds' median round times.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _environment(abr, np):
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"backend": abr.backend.BACKEND,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cores": os.cpu_count(),
            "src_lines": src_lines}


def _import_seconds(samples=3):
    """Median time of a fresh ``import abrikosov`` in a new interpreter."""
    code = ("import time; t = time.perf_counter(); import abrikosov; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], check=True,
                                  capture_output=True, text=True,
                                  timeout=60).stdout)
             for _ in range(samples)]
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--input-seed", type=int, required=True)
    ap.add_argument("--check-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import abrikosov as abr
    abr.backend.warmup()
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](abr, args.input_seed,
                                            args.check_seed, ROOT)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace and args.workload == "cli":
        wl.in_process = True

    result = {"env": _environment(abr, np), "attempted": 0, "failed": 0,
              "problems": [], "counts": None, "round_s": [], "traced_s": []}
    layers = []
    tracer = None
    began = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(result["round_s"]) > len(result["traced_s"])
        if traced:
            tracer = Tracer()
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = wl.run()
            elapsed = time.perf_counter() - t0
        except Exception:
            result["attempted"] += wl.ops_per_round
            result["failed"] += wl.ops_per_round
            result["problems"].append(traceback.format_exc())
            break
        finally:
            if traced:
                tracer.uninstall()
        verdict = wl.check(out)
        result["attempted"] += verdict.attempted
        result["failed"] += verdict.failed
        result["problems"] += verdict.problems
        if result["counts"] is None:
            result["counts"] = verdict.counts
        elif verdict.counts != result["counts"]:
            result["problems"].append("solver counts differ between rounds")
        if traced:
            result["traced_s"].append(elapsed)
            layers.append({**tracer.layer_metrics(), **verdict.layer})
        else:
            result["round_s"].append(elapsed)
        done = len(result["round_s"]) >= 1 and (
            not args.trace or len(result["traced_s"]) >= len(result["round_s"]))
        if result["problems"] or (done and time.perf_counter() - began >= args.seconds):
            break

    if args.workload == "cli":
        result["peak_rss_mb"] = wl.children_peak_rss_mb()
    else:
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if layers:
        result["layers"] = {k: statistics.median(d.get(k, 0.0) for d in layers)
                            for k in layers[0]}
        result["layers"]["trace.overhead_s"] = (
            statistics.median(result["traced_s"])
            - statistics.median(result["round_s"]))
        result["layers"]["cli.import_s"] = _import_seconds()
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}.npz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
