"""levylab benchmark: every CLI subcommand end to end, every module timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload finite_size --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/BASELINE.md for why each exists):
  finite_size  sample-spectrum, localization-sweep, local-law
  limiting     solve-fixed-point, density, population-dynamics on and off the axis
  nystrom      kernel-scan (real alpha) and a complex-alpha Fredholm determinant

The launcher itself imports nothing but the standard library.  It measures
set-up (process start to ready, the median of several fresh processes) and
then starts one worker process that generates all the load.  The BLAS thread
count is fixed in the workers' environment.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("finite_size", "limiting", "nystrom")
#: fresh processes timed from start to ready; the worker's own set-up is one more
SETUP_PROBES = 4
#: one worker may not outlive the 180 s a benchmark run is allowed
WORKER_TIMEOUT_S = 170.0
#: 2 BLAS threads measured steadier than 1 for the n=2000 eigensolves
MAX_BLAS_THREADS = 2


def blas_threads() -> int:
    return max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def start_worker(args: list[str]):
    """Start a worker; return (process, seconds from start until it said ready)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=ROOT,
                            env=worker_env(), stdout=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    ready = perf_counter() - t0
    if first.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not set up; see stderr")
    return proc, ready


def finish(proc, deadline: float) -> list[str]:
    """Collect a worker's remaining stdout lines and wait for it to end."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran out of time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out.splitlines()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "levylab" / "cli.py").is_file():
        print(f"no levylab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + WORKER_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, ready = start_worker(["--probe"])
                finish(proc, deadline)
                setups.append(ready)
        proc, ready = start_worker(["--workload", args.workload, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)])
        setups.append(ready)
        lines = finish(proc, deadline)
        result = json.loads(lines[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for line in lines[:-1]:
        print(line)
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for name, (value, unit) in result["metrics"].items():
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
