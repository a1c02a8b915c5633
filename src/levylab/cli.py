"""Command-line entry points; every subcommand writes through ``emit``.

Each run leaves ``<kind>-<hash>.meta.json`` (plus ``<kind>-<hash>.csv``
for tabular results) and prints every path on its own line.
Exit codes: 0 success, 2 partial (some samples skipped), 1 failure
(a ``RuntimeError`` or ``ValueError``, including a bad config file).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    ExperimentConfig,
    RunRecord,
    derived_seed,
    emit,
    run_local_law,
    run_transition_sweep,
)
from .fixed_point import (
    QuadratureConfig,
    population_dynamics,
    pool_moment,
    solve_gamma_star,
    spectral_density,
)
from .kernel_spectrum import alpha_scan, flag_minima
from .matrix_model import build_levy_matrix, eigenvalues

#: options that locate inputs and outputs or override the config; they
#: never enter a record's own arguments (and so never its hash)
_NOT_ARGS = ("command", "config", "out", "seed", "alpha")


def _load_config(args) -> ExperimentConfig:
    alpha = getattr(args, "alpha", None)
    if args.config:
        cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    else:
        cfg = ExperimentConfig(alpha=alpha if alpha else 1.0)
    return cfg.with_overrides(alpha=alpha, master_seed=args.seed)


def _common(parser, with_alpha=True):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default="out", help="output directory")
    if with_alpha:
        parser.add_argument("--alpha", type=float, default=None)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="levylab",
                                description="heavy-tailed random matrix laboratory")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample-spectrum", help="eigenvalues of one sample")
    _common(sp)
    sp.add_argument("--n", type=int, default=1000)

    sw = sub.add_parser("localization-sweep", help="Q_I over (n, seed, E)")
    _common(sw)

    ll = sub.add_parser("local-law", help="window mass vs the limiting measure")
    _common(ll)

    fx = sub.add_parser("solve-fixed-point", help="order-parameter fixed point")
    _common(fx)
    fx.add_argument("--z-re", type=float, default=0.0)
    fx.add_argument("--z-im", type=float, default=0.1)
    fx.add_argument("--tol", type=float, default=1e-7)
    fx.add_argument("--grid", type=int, default=65)

    de = sub.add_parser("density", help="limiting spectral density table")
    _common(de)
    de.add_argument("--e-max", type=float, default=2.0)
    de.add_argument("--points", type=int, default=21)

    pd = sub.add_parser("population-dynamics", help="pool for the recursive law")
    _common(pd)
    pd.add_argument("--z-re", type=float, default=0.0)
    pd.add_argument("--z-im", type=float, default=0.2)
    pd.add_argument("--pool", type=int, default=100000)
    pd.add_argument("--sweeps", type=int, default=30)
    pd.add_argument("--K", type=int, default=200)

    ks = sub.add_parser("kernel-scan", help="Fredholm determinant scan over alpha")
    _common(ks, with_alpha=False)
    ks.add_argument("--alpha-min", type=float, default=1.1)
    ks.add_argument("--alpha-max", type=float, default=1.9)
    ks.add_argument("--step", type=float, default=0.05)
    ks.add_argument("--nodes", type=int, default=64)
    ks.add_argument("--kappa", type=float, default=0.5)
    ks.add_argument("--no-refine", action="store_true")
    return p


def sample_spectrum(cfg, args) -> RunRecord:
    seed = derived_seed(cfg.master_seed, args.n, 0)
    lam = eigenvalues(build_levy_matrix(args.n, cfg.alpha, seed))
    return RunRecord("sample-spectrum", cfg, columns=("index", "eigenvalue"),
                     rows=tuple(enumerate(lam)))


def solve_fixed_point(cfg, args) -> RunRecord:
    quad = QuadratureConfig().scaled(cfg.quad_scale)
    sol = solve_gamma_star(complex(args.z_re, args.z_im), cfg.alpha,
                           tol=args.tol, m=args.grid, quad=quad)
    return RunRecord("solve-fixed-point", cfg, fields=sol.checkpoint(quad))


def density(cfg, args) -> RunRecord:
    quad = QuadratureConfig().scaled(cfg.quad_scale)
    es = np.linspace(0.0, args.e_max, args.points)
    vals, errs = spectral_density(es, cfg.alpha, cfg.eta_ladder, quad=quad)
    return RunRecord("density", cfg,
                     columns=("E", "f_star", "eta_used", "extrapolation_error"),
                     rows=tuple((e, val, cfg.eta_ladder[-1], err)
                                for e, val, err in zip(es, vals, errs)))


def pool_run(cfg, args) -> RunRecord:
    z = complex(args.z_re, args.z_im)
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.master_seed, spawn_key=(0xB0D,)))
    pool = population_dynamics(z, cfg.alpha, args.pool, args.sweeps, args.K, rng)
    m1, se1 = pool_moment(pool, 1.0, "abs")
    m2, se2 = pool_moment(pool, 2.0, "abs")
    return RunRecord("population-dynamics", cfg, fields={
        "z_re": z.real, "z_im": z.imag, "alpha": cfg.alpha,
        "pool_size": args.pool, "sweeps": args.sweeps, "K": args.K,
        "converged": pool.converged, "m_history": list(pool.m_history),
        "E_abs_R": m1, "se_abs_R": se1,
        "E_abs_R2": m2, "se_abs_R2": se2,
    })


def kernel_scan(cfg, args) -> RunRecord:
    grid = np.arange(args.alpha_min, args.alpha_max + 0.5 * args.step, args.step)
    results, failures = alpha_scan(grid, n_nodes=args.nodes, kappa=args.kappa,
                                   refine=not args.no_refine)
    minima = set(flag_minima(results))
    rows = tuple((r.alpha.real, r.alpha.imag, r.m, r.grid_size,
                  r.det_value.real, r.det_value.imag, abs(r.det_value),
                  abs(r.det_deflated), r.refinement_delta, int(i in minima))
                 for i, r in enumerate(results))
    # the scan reads no config: its hash covers its own arguments only
    return RunRecord("kernel-scan", None,
                     columns=("re_alpha", "im_alpha", "m", "n_nodes", "det_re",
                              "det_im", "abs_det", "abs_det_deflated",
                              "refinement_delta", "candidate_minimum"),
                     rows=rows, skipped=tuple(note for _, note in failures))


#: subcommands that read no config: ``--config`` is accepted, not loaded
NO_CONFIG = frozenset({"kernel-scan"})

#: subcommand -> compute step returning its RunRecord (without ``args``)
COMMANDS = {
    "sample-spectrum": sample_spectrum,
    "localization-sweep": lambda cfg, args: run_transition_sweep(cfg),
    "local-law": lambda cfg, args: run_local_law(cfg),
    "solve-fixed-point": solve_fixed_point,
    "density": density,
    "population-dynamics": pool_run,
    "kernel-scan": kernel_scan,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    own = {k: v for k, v in vars(args).items() if k not in _NOT_ARGS}
    try:
        cfg = None if args.command in NO_CONFIG else _load_config(args)
        record = replace(COMMANDS[args.command](cfg, args), args=own)
    except (RuntimeError, ValueError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1
    for path in emit(record, args.out):
        print(path)
    return 2 if record.skipped else 0


if __name__ == "__main__":
    sys.exit(main())
