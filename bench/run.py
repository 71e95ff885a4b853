"""Benchmark of the abrikosov package: one workload per invocation.

Run from the root of a checkout:

    python3 bench/run.py --workload elkies --seed 1 --seconds 10 --trace 0

Workloads: elkies, conjecture1, obstacle, cli (see bench/README.md).  The
workload runs in a fresh single-threaded process that imports the package
from this checkout's ``src/``; the set-up is timed in separate fresh
processes.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds
the per-layer metrics.  The line before it records the environment, and
``bench/out/`` keeps the full result of the run (round times, exact solver
counts, failed checks) and, for traced runs, the spans.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("elkies", "conjecture1", "obstacle", "cli")
SETUP_SAMPLES = 9
WORKER_TIMEOUT = 160.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # imports read cached bytecode, as an installed package's would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker_cmd(args, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--input-seed", str(args.input_seed),
           "--check-seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return cmd + ["--setup-only"] if setup_only else cmd


def _start(cmd, env):
    """Start a process; return it with the seconds until it printed ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{cmd[1]} did not get ready (exit {proc.returncode})")
    return proc, elapsed


def _setup_times(args, env, samples):
    """Times from start to ready of fresh set-up processes."""
    times = []
    for _ in range(samples):
        if args.workload == "cli":
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "abrikosov", "--version"],
                           env=env, cwd=ROOT, check=True, timeout=60,
                           stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
        else:
            proc, elapsed = _start(_worker_cmd(args, setup_only=True), env)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0:
                raise RuntimeError("set-up process failed")
            times.append(elapsed)
    return times


def _run_worker(args, env):
    proc, _ = _start(_worker_cmd(args), env)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)     # the worker and its children
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the checks' sampled inputs")
    ap.add_argument("--input-seed", type=int, default=0,
                    help="seed of the program's random starts (fixed, so "
                         "solver counts repeat)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="run whole rounds until this many seconds passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "abrikosov" / "__init__.py").is_file():
        print(f"bench: {ROOT / 'src' / 'abrikosov'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = _child_env()
    # set-up samples before and after the workload, so that they span the
    # run rather than one moment of the machine's drifting speed
    before = [] if args.trace else _setup_times(args, env, SETUP_SAMPLES // 2)
    res = _run_worker(args, env)
    figures = dict(res.get("layers", {}))
    if not args.trace:
        setup = before + _setup_times(args, env, SETUP_SAMPLES - len(before))
        res["setup_samples_s"] = setup
        figures.update(setup_s=statistics.median(setup),
                       wall_s=statistics.median(res["round_s"]),
                       peak_rss_mb=res["peak_rss_mb"])
    problems = list(res["problems"])
    metrics = {}
    for m in wanted:
        if m["name"] in figures:
            metrics[m["name"]] = {"value": figures[m["name"]], "unit": m["unit"]}
        else:
            problems.append(f"metric {m['name']} was not measured")

    res.update(workload=args.workload, seed=args.seed,
               input_seed=args.input_seed, trace=args.trace, metrics=metrics,
               problems=problems)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-trace{args.trace}-seed{args.seed}.json") \
        .write_text(json.dumps(res, indent=1) + "\n")
    for p in problems[:20]:
        print(f"FAILED CHECK: {p}", file=sys.stderr)
    print(json.dumps({"env": res["env"], "counts": res["counts"]}))
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
