"""The benchmark's workloads: levylab operations and the checks on their outputs.

Each operation is one ``levylab`` CLI subcommand driven in-process through
``levylab.cli.main(argv)`` (or one library call where the CLI cannot reach),
writing into its own output directory.  ``prepare`` writes the inputs and
``check`` validates the outputs; only ``run`` is timed.  Every check holds
for any seed, so a failed check means a wrong output, never bad luck.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from levylab import cli, experiments, fixed_point, kernel_spectrum, matrix_model

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# finite_size: sampler -> eigh -> windows / resolvent
SPECTRUM_N = 2000
SWEEP_CONFIG = dict(alpha=1.0, n_list=[1000, 2000], n_seeds=2, energies=[0.0, 1.0],
                    interval_rule="fixed", fixed_width=0.25)
LOCAL_LAW_CONFIG = dict(alpha=1.0, n_list=[1000, 2000], n_seeds=2, energies=[0.0],
                        interval_rule="fixed", fixed_width=0.2)
#: |mean count_frac - mu_star| bound, the tolerance of acceptance test 08
LOCAL_LAW_TOL = 0.05

# limiting: fixed point, density, population dynamics
FIXED_POINT_TOL = 1e-7
POOL = dict(alpha=1.0, size=12500, sweeps=30, K=200)
#: allowed |pool mean of -iR - s_1(z)| in pool standard errors; the error
#: seen over 16 seeds stayed below 2.2 SE at this pool size
POOL_SE_MULTIPLE = 6.0

# nystrom: kernel operators and Fredholm determinants
KERNEL_COMPLEX_ALPHA = 1.5 + 5j
KERNEL_NODES = 48
#: relative agreement of det_deflated with the reference (ROADMAP 5(b) gate)
DET_RTOL = 1e-8
REFINEMENT_DELTA_MAX = 0.05

#: relative slack on the spectrum's trace and Frobenius identities; the
#: observed defects are about 1e-15 of the scale
TRACE_RTOL = 1e-13
FROBENIUS_RTOL = 1e-12


class CheckError(AssertionError):
    """An operation's output failed its correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass(frozen=True)
class Op:
    name: str
    prepare: Callable[[int, Path], dict]  # untimed: write inputs, return the spec
    run: Callable[[dict], Any]            # timed
    check: Callable[[dict, Any], None]    # untimed: raise CheckError on a bad output


@contextlib.contextmanager
def keep_results(name: str):
    """Keep what ``levylab.cli.<name>`` returns while the CLI runs."""
    original = getattr(cli, name)
    kept = []

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        kept.append(result)
        return result

    setattr(cli, name, keep)
    try:
        yield kept
    finally:
        setattr(cli, name, original)


def run_cli(argv: list[str], keep: str | None = None):
    """``levylab.cli.main(argv)`` with stdout captured; returns (paths, kept)."""
    buf = io.StringIO()
    with contextlib.ExitStack() as stack:
        kept = stack.enter_context(keep_results(keep)) if keep else []
        stack.enter_context(contextlib.redirect_stdout(buf))
        code = cli.main(argv)
    if code != 0:
        raise CheckError(f"levylab {argv[0]} exited with code {code}")
    paths = [Path(line) for line in buf.getvalue().splitlines()
             if line and Path(line).is_file()]
    return paths, kept


def write_config(out: Path, name: str, **fields) -> str:
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(json.dumps(fields))
    return str(path)


def one(paths, suffix: str) -> Path:
    found = [p for p in paths if p.name.endswith(suffix)]
    require(len(found) == 1, f"expected one *{suffix} output, got {len(found)}")
    return found[0]


def cli_op(name: str, prepare, check, keep: str | None = None) -> Op:
    return Op(name, prepare, lambda spec: run_cli(spec["argv"], keep), check)


# ---------------------------------------------------------------------------
# finite_size
# ---------------------------------------------------------------------------

def prepare_sample_spectrum(seed: int, out: Path) -> dict:
    return {"seed": seed, "argv": ["sample-spectrum", "--n", str(SPECTRUM_N),
                                   "--alpha", "1.0", "--seed", str(seed),
                                   "--out", str(out)]}


def check_sample_spectrum(spec: dict, result) -> None:
    paths, _ = result
    lam = np.loadtxt(one(paths, ".csv"), delimiter=",", skiprows=1, usecols=1, ndmin=1)
    require(lam.size == SPECTRUM_N, f"{lam.size} eigenvalues, expected {SPECTRUM_N}")
    require(bool(np.all(np.diff(lam) >= 0)), "eigenvalues are not ascending")
    a = matrix_model.build_levy_matrix(
        SPECTRUM_N, 1.0, experiments.derived_seed(spec["seed"], SPECTRUM_N, 0)).entries
    scale = SPECTRUM_N * float(np.max(np.abs(lam)))
    trace_defect = abs(float(np.sum(lam)) - float(np.trace(a)))
    require(trace_defect <= TRACE_RTOL * scale,
            f"sum of eigenvalues misses the trace by {trace_defect:.3e}")
    fro = float(np.sum(a * a))
    fro_defect = abs(float(np.sum(lam ** 2)) - fro)
    require(fro_defect <= FROBENIUS_RTOL * fro,
            f"sum of squared eigenvalues misses |A|_F^2 by {fro_defect:.3e}")


def prepare_sweep(seed: int, out: Path) -> dict:
    cfg = write_config(out, "sweep.json", **SWEEP_CONFIG)
    return {"argv": ["localization-sweep", "--config", cfg, "--seed", str(seed),
                     "--out", str(out)]}


def check_sweep(spec: dict, result) -> None:
    paths, _ = result
    columns = experiments.SWEEP_COLUMNS
    rows = experiments.read_rows(one(paths, ".csv"), columns)
    i_c, i_q = columns.index("count"), columns.index("Q")
    expected = (len(SWEEP_CONFIG["n_list"]) * SWEEP_CONFIG["n_seeds"]
                * len(SWEEP_CONFIG["energies"]))
    require(len(rows) == expected, f"{len(rows)} rows, expected {expected}")
    for row in rows:
        if row[i_c] > 0:
            # Q = n sum P^2 >= 1 for a probability vector P (Cauchy-Schwarz)
            require(row[i_q] >= 1.0 - 1e-12, f"Q = {row[i_q]!r} < 1 on a non-empty window")
    meta = json.loads(one(paths, ".meta.json").read_text())
    again = experiments.aggregate_sweep(rows, columns)
    require(json.dumps(again, sort_keys=True) == json.dumps(meta["aggregates"], sort_keys=True),
            "aggregates do not re-derive bit-for-bit from the emitted rows")


def prepare_local_law(seed: int, out: Path) -> dict:
    cfg = write_config(out, "local-law.json", **LOCAL_LAW_CONFIG)
    return {"argv": ["local-law", "--config", cfg, "--seed", str(seed),
                     "--out", str(out)]}


def check_local_law(spec: dict, result) -> None:
    paths, _ = result
    meta = json.loads(one(paths, ".meta.json").read_text())
    aggs = meta["aggregates"]
    require(len(aggs) == len(LOCAL_LAW_CONFIG["n_list"]) * len(LOCAL_LAW_CONFIG["energies"]),
            f"{len(aggs)} aggregate cells")
    for key, agg in aggs.items():
        err = abs(agg["mean_count_frac"] - agg["mu_star"])
        require(err <= LOCAL_LAW_TOL,
                f"{key}: window mass {agg['mean_count_frac']:.5f} vs "
                f"mu*={agg['mu_star']:.5f} (|diff| {err:.4f} > {LOCAL_LAW_TOL})")


# ---------------------------------------------------------------------------
# limiting
# ---------------------------------------------------------------------------

def prepare_fixed_point(seed: int, out: Path) -> dict:
    cfg = write_config(out, "fixed-point.json", alpha=1.0, quad_scale=0.75)
    return {"argv": ["solve-fixed-point", "--config", cfg, "--seed", str(seed),
                     "--z-re", "0.0", "--z-im", "0.2", "--tol", str(FIXED_POINT_TOL),
                     "--grid", "65", "--out", str(out)]}


def check_fixed_point(spec: dict, result) -> None:
    paths, _ = result
    sol = fixed_point.FixedPointSolution.from_checkpoint(one(paths, ".json").read_text())
    require(sol.residual <= FIXED_POINT_TOL,
            f"residual {sol.residual:.3e} above tol {FIXED_POINT_TOL:.0e}")
    require(sol.gamma.values.size == 65, "grid size is not 65")
    require(bool(np.all(sol.gamma.values.real > 0)), "Re gamma <= 0 on the grid")


def prepare_density(seed: int, out: Path) -> dict:
    cfg = write_config(out, "density.json", alpha=REFERENCE["density"]["alpha"],
                       quad_scale=1.0)
    return {"argv": ["density", "--config", cfg, "--seed", str(seed),
                     "--e-max", "5", "--points", str(len(REFERENCE["density"]["E"])),
                     "--out", str(out)]}


def read_density(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows])
            for key in ("E", "f_star", "extrapolation_error")}


def check_density(spec: dict, result) -> None:
    paths, _ = result
    table = read_density(one(paths, ".csv"))
    ref = REFERENCE["density"]
    require(np.array_equal(table["E"], np.array(ref["E"])), "energy grid differs")
    f, err = table["f_star"], table["extrapolation_error"]
    require(bool(np.all(f >= 0)), "negative density")
    gap = np.abs(f - np.array(ref["f_star"]))
    worst = int(np.argmax(gap - err))
    require(bool(np.all(gap <= err)),
            f"density at E={table['E'][worst]} moved {gap[worst]:.3e} from the "
            f"reference, beyond its extrapolation error {err[worst]:.3e}")


def prepare_pool(z_re: float):
    def prepare(seed: int, out: Path) -> dict:
        return {"z": complex(z_re, 0.2),
                "argv": ["population-dynamics", "--alpha", str(POOL["alpha"]),
                         "--z-re", str(z_re), "--z-im", "0.2",
                         "--pool", str(POOL["size"]), "--sweeps", str(POOL["sweeps"]),
                         "--K", str(POOL["K"]), "--seed", str(seed), "--out", str(out)]}
    return prepare


def check_pool(spec: dict, result) -> None:
    paths, kept = result
    require(len(kept) == 1, "population_dynamics was not called exactly once")
    pool = kept[0]
    z, alpha = spec["z"], POOL["alpha"]
    require(pool.size == POOL["size"], f"pool size {pool.size}")
    mean, se = fixed_point.pool_moment(pool, 1.0, "signed")
    target = fixed_point.s_p(z, fixed_point.solve_tilde_gamma(z, alpha), 1.0, alpha)
    require(abs(mean - target) <= POOL_SE_MULTIPLE * se,
            f"pool E(-iR) = {mean:.5f} vs s_1 = {target:.5f}: "
            f"{abs(mean - target) / se:.1f} SE > {POOL_SE_MULTIPLE}")
    saved = json.loads(one(paths, ".json").read_text())
    m_abs, _ = fixed_point.pool_moment(pool, 1.0, "abs")
    require(saved["E_abs_R"] == m_abs, "written E|R| is not the pool's")


# ---------------------------------------------------------------------------
# nystrom
# ---------------------------------------------------------------------------

def check_determinant(result, ref: list[float], label: str) -> None:
    require(result.n_structural == 2,
            f"{label}: {result.n_structural} structural eigenvalues, expected 2")
    require(result.refinement_delta <= REFINEMENT_DELTA_MAX,
            f"{label}: refinement delta {result.refinement_delta:.3e}")
    ref_det = complex(*ref)
    rel = abs(result.det_deflated - ref_det) / abs(ref_det)
    require(rel <= DET_RTOL, f"{label}: det_deflated {result.det_deflated} is "
                             f"{rel:.2e} (relative) from the reference {ref_det}")


def prepare_kernel_scan(seed: int, out: Path) -> dict:
    return {"argv": ["kernel-scan", "--alpha-min", "1.1", "--alpha-max", "1.9",
                     "--step", "0.4", "--nodes", str(KERNEL_NODES), "--seed", str(seed),
                     "--out", str(out)]}


def check_kernel_scan(spec: dict, result) -> None:
    paths, kept = result
    require(len(kept) == 1, "alpha_scan was not called exactly once")
    results, failures = kept[0]
    require(not failures, f"skipped alphas: {failures}")
    ref = REFERENCE["kernel_scan"]
    require(len(results) == len(ref["alpha"]), f"{len(results)} alphas scanned")
    with open(one(paths, ".csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r, row, a, det in zip(results, rows, ref["alpha"], ref["det_deflated"]):
        require(abs(r.alpha - a) < 1e-12, f"alpha {r.alpha} where {a} expected")
        check_determinant(r, det, f"alpha={a}")
        require(float(row["abs_det_deflated"]) == abs(r.det_deflated),
                "CSV |det_deflated| is not the computed one")


def prepare_kernel_complex(seed: int, out: Path) -> dict:
    return {}


def run_kernel_complex(spec: dict):
    ks = kernel_spectrum
    alpha = KERNEL_COMPLEX_ALPHA
    return ks.fredholm_det(ks.assemble_H(alpha, KERNEL_NODES, kappa=0.5),
                           ks.band_power(alpha.real), refine=True)


def check_kernel_complex(spec: dict, result) -> None:
    check_determinant(result, REFERENCE["kernel_complex"]["det_deflated"],
                      f"alpha={KERNEL_COMPLEX_ALPHA}")


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "finite_size": (
        cli_op("sample-spectrum", prepare_sample_spectrum, check_sample_spectrum),
        cli_op("localization-sweep", prepare_sweep, check_sweep),
        cli_op("local-law", prepare_local_law, check_local_law),
    ),
    "limiting": (
        cli_op("solve-fixed-point", prepare_fixed_point, check_fixed_point),
        cli_op("density", prepare_density, check_density),
        cli_op("population-dynamics", prepare_pool(0.0), check_pool,
               keep="population_dynamics"),
        cli_op("population-dynamics-offaxis", prepare_pool(0.5), check_pool,
               keep="population_dynamics"),
    ),
    "nystrom": (
        cli_op("kernel-scan", prepare_kernel_scan, check_kernel_scan, keep="alpha_scan"),
        Op("kernel-complex", prepare_kernel_complex, run_kernel_complex,
           check_kernel_complex),
    ),
}

OP_NAMES = tuple(op.name for ops in WORKLOADS.values() for op in ops)
