"""One benchmark process: set up levylab, run one workload, check its outputs.

Started by ``run.py`` with the BLAS thread count fixed in its environment.
It prints ``ready`` once set up; with ``--probe`` it stops there.  Otherwise
it runs rounds of the workload's operations in this one process, each round
with its own master seed derived from ``--seed``, until the next round would
end past ``--seconds`` of measured time (at least one round).  Each
operation's output is checked after it, outside the timed region.

With ``--trace 1`` it runs pairs of an untraced and a traced round on the
same seed, alternating which goes first, so the pairs give the tracing
overhead; the per-layer numbers come from
the traced rounds.  The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> [value, unit]).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def set_up() -> None:
    """Import the package from the checkout and touch LAPACK once."""
    import numpy as np

    import levylab
    import levylab.cli  # noqa: F401  (imports every module the CLI uses)

    src = (ROOT / "src").resolve()
    if src not in Path(levylab.__file__).resolve().parents:
        raise SystemExit(f"levylab imported from {levylab.__file__}, not from {src}")
    a = np.arange(64.0).reshape(8, 8)
    np.linalg.eigh(a + a.T)
    np.linalg.eigvals(a + 1j)


def machine_record(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def round_seed(seed: int, r: int) -> int:
    """Master seed of round r: the high 63 bits of SeedSequence(seed, (r,))."""
    import numpy as np

    state = np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(1, dtype=np.uint64)
    return int(state[0] >> 1)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_round(ops, seed: int, out: Path, tally: Tally, tracer=None) -> dict[str, float]:
    """Run every op once; return op name -> wall seconds of its timed call."""
    times = {}
    for op in ops:
        tally.attempted += 1
        op_out = out / op.name
        try:
            spec = op.prepare(seed, op_out)
            if tracer is not None:
                tracer.active = True
                t0 = perf_counter()
                result = tracer.call(f"op.{op.name}", op.run, (spec,))
                times[op.name] = perf_counter() - t0
                tracer.active = False
            else:
                t0 = perf_counter()
                result = op.run(spec)
                times[op.name] = perf_counter() - t0
            op.check(spec, result)
        except Exception:  # noqa: BLE001 - a failed op is counted and reported
            if tracer is not None:
                tracer.active = False
            tally.failed += 1
            times.setdefault(op.name, 0.0)
            print(f"[{op.name}] seed {seed} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
        shutil.rmtree(op_out, ignore_errors=True)
    return times


def median_times(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


def measure(ops, seed: int, seconds: float, out: Path, tally: Tally) -> dict:
    """Untraced rounds; run_s is the sum over ops of each op's median time."""
    rounds = []
    while True:
        rounds.append(run_round(ops, round_seed(seed, len(rounds)), out, tally))
        spent = sum(sum(r.values()) for r in rounds)
        if spent + sum(median_times(rounds).values()) > seconds:
            break
    op_s = median_times(rounds)
    return {
        "run_s": (sum(op_s.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "round_s": [sum(r.values()) for r in rounds],
        "op_s": op_s,
    }


def measure_traced(ops, seed: int, seconds: float, out: Path, tally: Tally,
                   workload: str, header: dict) -> dict:
    import tracer as tr
    from levylab import quadrature

    from workloads import OP_NAMES

    tracer = tr.Tracer()
    plain, traced = [], []
    seen = []
    roots = [0, 0]  # cached_roots_jacobi (hits, misses) during traced rounds

    def traced_round(s):
        before = quadrature.cached_roots_jacobi.cache_info()
        patches = tr.install(tracer)
        seen.extend(patches.entries)
        try:
            traced.append(run_round(ops, s, out, tally, tracer))
        finally:
            patches.uninstall()
        after = quadrature.cached_roots_jacobi.cache_info()
        roots[0] += after.hits - before.hits
        roots[1] += after.misses - before.misses

    while True:
        # same seed for both rounds of a pair; alternate which goes first
        s = round_seed(seed, len(plain))
        if len(plain) % 2:
            traced_round(s)
            plain.append(run_round(ops, s, out, tally))
        else:
            plain.append(run_round(ops, s, out, tally))
            traced_round(s)
        spent = sum(sum(r.values()) for r in plain + traced)
        pair = sum(median_times(plain).values()) + sum(median_times(traced).values())
        if spent + pair > seconds:
            break
    bad = tr.unrestored(seen)
    if bad:
        raise SystemExit(f"bindings left wrapped after tracing: {bad}")
    metrics = tr.layer_metrics(tracer, tuple(roots), len(traced))
    op_s = median_times(plain)
    plain_s = sum(op_s.values())
    traced_s = sum(median_times(traced).values())
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    for name in OP_NAMES:
        metrics[f"op.{name}_s"] = (op_s.get(name, 0.0), "s")
    tracer.write(ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json",
                 dict(header, workload=workload, traced_rounds=len(traced)))
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--probe", action="store_true", help="set up, say ready, exit")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    set_up()
    print("ready", flush=True)
    if args.probe:
        return 0

    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload]
    header = {"machine": machine_record(args.seed)}
    print(json.dumps(header), flush=True)
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    tally = Tally()
    try:
        if args.trace:
            metrics = measure_traced(ops, args.seed, args.seconds, out, tally,
                                     args.workload, header)
        else:
            m = measure(ops, args.seed, args.seconds, out, tally)
            print(json.dumps({"round_s": m.pop("round_s"), "op_s": m.pop("op_s")}), flush=True)
            metrics = m
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: [v, unit] for k, (v, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
