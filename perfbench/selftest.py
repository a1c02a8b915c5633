"""The benchmark's own tests.

Every output check accepts a real output and rejects a corrupted copy of it
(a perturbed eigenvalue, Q value, window mass, residual, density value, pool
moment or determinant), and after tracing every wrapped levylab function is
its original object again.  Each operation runs once or twice, on seed 1
(under a minute in all on two cores).

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

OPS = {op.name: op for ops in wl.WORKLOADS.values() for op in ops}
SEED = 1


class TestFailure(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise TestFailure(message)


def rejects(op_name: str, spec, result, match: str) -> None:
    """The op's check must raise CheckError mentioning ``match``."""
    try:
        OPS[op_name].check(spec, result)
    except wl.CheckError as exc:
        expect(match in str(exc), f"{op_name}: rejected for another reason: {exc}")
        return
    raise TestFailure(f"{op_name}: corrupted output ({match}) was accepted")


def run_op(name: str, out: Path):
    op = OPS[name]
    spec = op.prepare(SEED, out / name)
    result = op.run(spec)
    op.check(spec, result)  # the real output passes
    return spec, result


def edit_csv(path: Path, column: str, row: int, fn) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    rows[row + 1][j] = fn(rows[row + 1][j])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def fresh(name: str, out: Path):
    """A new real output of op ``name`` in its own directory."""
    sub = out / f"{name}-{len(list(out.iterdir()))}"
    return run_op(name, sub)


def test_sample_spectrum(out: Path) -> None:
    spec, result = fresh("sample-spectrum", out)
    path = wl.one(result[0], ".csv")
    edit_csv(path, "eigenvalue", wl.SPECTRUM_N - 1, lambda v: "%.17g" % (float(v) * (1 + 1e-6)))
    rejects("sample-spectrum", spec, result, "trace")
    spec, result = fresh("sample-spectrum", out)
    path = wl.one(result[0], ".csv")
    lam = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)
    edit_csv(path, "eigenvalue", 0, lambda v: "%.17g" % lam[1])
    edit_csv(path, "eigenvalue", 1, lambda v: "%.17g" % lam[0])
    rejects("sample-spectrum", spec, result, "ascending")


def first_nonempty(path: Path) -> int:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return next(i for i, r in enumerate(rows) if int(r["count"]) > 0)


def test_sweep(out: Path) -> None:
    spec, result = fresh("localization-sweep", out)
    path = wl.one(result[0], ".csv")
    i = first_nonempty(path)
    edit_csv(path, "Q", i, lambda v: "%.17g" % np.nextafter(float(v), np.inf))
    rejects("localization-sweep", spec, result, "bit-for-bit")
    edit_csv(path, "Q", i, lambda v: "0.9")
    rejects("localization-sweep", spec, result, "< 1")


def test_local_law(out: Path) -> None:
    spec, result = fresh("local-law", out)
    meta = wl.one(result[0], ".meta.json")

    def shift(doc):
        cell = next(iter(doc["aggregates"].values()))
        cell["mean_count_frac"] = cell["mu_star"] + 1.2 * wl.LOCAL_LAW_TOL
    edit_json(meta, shift)
    rejects("local-law", spec, result, "window mass")


def test_fixed_point(out: Path) -> None:
    spec, result = fresh("solve-fixed-point", out)
    path = wl.one(result[0], ".json")
    text = path.read_text()
    edit_json(path, lambda d: d.update(residual=2 * wl.FIXED_POINT_TOL))
    rejects("solve-fixed-point", spec, result, "residual")
    path.write_text(text)
    edit_json(path, lambda d: d["gamma"]["values_re"].__setitem__(3, -1e-3))
    rejects("solve-fixed-point", spec, result, "Re gamma")


def test_density(out: Path) -> None:
    spec, result = fresh("density", out)
    path = wl.one(result[0], ".csv")
    text = path.read_text()
    table = wl.read_density(path)
    k = len(table["E"]) // 2
    bump = 2 * table["extrapolation_error"][k] + 1e-9
    edit_csv(path, "f_star", k, lambda v: "%.17g" % (float(v) + bump))
    rejects("density", spec, result, "extrapolation error")
    path.write_text(text)
    edit_csv(path, "f_star", len(table["E"]) - 1, lambda v: "-1e-12")
    rejects("density", spec, result, "negative")


def test_pool(name: str, out: Path) -> None:
    spec, (paths, kept) = fresh(name, out)
    pool = kept[0]
    _, se = wl.fixed_point.pool_moment(pool, 1.0, "signed")
    # R -> R + i d moves E(-iR) by d
    shifted = dataclasses.replace(pool, pool=pool.pool + 2j * wl.POOL_SE_MULTIPLE * se)
    rejects(name, spec, (paths, [shifted]), "SE")


def test_pool_on_axis(out: Path) -> None:
    test_pool("population-dynamics", out)


def test_pool_off_axis(out: Path) -> None:
    test_pool("population-dynamics-offaxis", out)


def corrupt_det(r, **changes):
    return dataclasses.replace(r, **changes)


def test_kernel_scan(out: Path) -> None:
    spec, (paths, kept) = fresh("kernel-scan", out)
    results, failures = kept[0]
    cases = [
        (dict(det_deflated=results[1].det_deflated * (1 + 1e-6)), "reference"),
        (dict(n_structural=1), "structural"),
        (dict(refinement_delta=2 * wl.REFINEMENT_DELTA_MAX), "refinement"),
    ]
    for changes, match in cases:
        bad = list(results)
        bad[1] = corrupt_det(results[1], **changes)
        rejects("kernel-scan", spec, (paths, [(bad, failures)]), match)


def test_kernel_complex(out: Path) -> None:
    spec, result = fresh("kernel-complex", out)
    rejects("kernel-complex", spec, corrupt_det(result, det_deflated=result.det_deflated * (1 + 1e-6)),
            "reference")
    rejects("kernel-complex", spec, corrupt_det(result, n_structural=3), "structural")


def test_trace_restores_bindings(out: Path) -> None:
    import levylab
    from levylab import cli, experiments, fixed_point, matrix_model

    originals = {
        "levylab.build_levy_matrix": (levylab, "build_levy_matrix"),
        "cli.build_levy_matrix": (cli, "build_levy_matrix"),
        "experiments.build_levy_matrix": (experiments, "build_levy_matrix"),
        "matrix_model.build_levy_matrix": (matrix_model, "build_levy_matrix"),
        "fixed_point.tanh_sinh": (fixed_point, "tanh_sinh"),
        "cli.main": (cli, "main"),
    }
    before = {k: getattr(ns, attr) for k, (ns, attr) in originals.items()}
    call_before = levylab.HomogeneousFn.__dict__["__call__"]
    tracer = tr.Tracer()
    patches = tr.install(tracer)
    entries = list(patches.entries)
    try:
        for k, (ns, attr) in originals.items():
            expect(getattr(ns, attr) is not before[k], f"{k} was not wrapped")
        expect(levylab.HomogeneousFn.__dict__["__call__"] is not call_before,
               "HomogeneousFn.__call__ was not wrapped")
        tracer.active = True
        fixed_point.tanh_sinh(0.0, 1.0, 9)
        tracer.active = False
        expect(tracer.stats["quadrature.tanh_sinh"][0] == 1, "traced call not counted")
        expect(len(tracer.spans) == 1, "traced call left no span")
    finally:
        patches.uninstall()
    expect(tr.unrestored(entries) == [], f"left wrapped: {tr.unrestored(entries)}")
    for k, (ns, attr) in originals.items():
        expect(getattr(ns, attr) is before[k], f"{k} is not the original after uninstall")
    expect(levylab.HomogeneousFn.__dict__["__call__"] is call_before,
           "HomogeneousFn.__call__ is not the original after uninstall")


TESTS = [
    test_trace_restores_bindings,
    test_sample_spectrum,
    test_sweep,
    test_local_law,
    test_fixed_point,
    test_density,
    test_pool_on_axis,
    test_pool_off_axis,
    test_kernel_scan,
    test_kernel_complex,
]


def main() -> int:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_out"))
    failed = 0
    try:
        for test in TESTS:
            name = test.__name__
            try:
                test(out)
                print(f"PASS {name}")
            except Exception:  # noqa: BLE001 - report every failing test
                failed += 1
                print(f"FAIL {name}\n{traceback.format_exc()}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(f"{len(TESTS) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
