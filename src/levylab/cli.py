"""Command-line entry points; every subcommand writes through ``emit``.

Each run leaves ``<kind>-<hash>.meta.json`` (plus ``<kind>-<hash>.csv``
for tabular results) and prints every path on its own line.
Exit codes: 0 success, 2 partial (some samples skipped, files
written), 1 failure (a ``RuntimeError`` or ``ValueError``, including a
bad config file, or an option argparse refuses; no files written).
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
    emit,
    run_local_law,
    run_sample_spectrum,
    run_transition_sweep,
)
from .fixed_point import (
    ETA_LADDER,
    QuadratureConfig,
    pool_moment,
    population_dynamics,
    replica_se,
    solve_gamma_star,
    spectral_density,
)
from .kernel_spectrum import alpha_scan, check_nodes, flag_minima
from .matrix_model import build_levy_matrix  # noqa: F401  (perfbench/selftest.py wraps it here)
from .stable_random import substream

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


def finite(text: str) -> float:
    """argparse type of every float option: a float that is finite, so
    that ``inf`` or ``nan`` stops at parsing under the option's name."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _common(parser, with_alpha=True):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default="out", help="output directory")
    if with_alpha:
        parser.add_argument("--alpha", type=finite, default=None)


class _Parser(argparse.ArgumentParser):
    """argparse that refuses an option with exit code 1, not 2, so that 2
    means only a partial run; its subcommand parsers are of this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="levylab", description="heavy-tailed random matrix laboratory")
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
    fx.add_argument("--z-re", type=finite, default=0.0)
    fx.add_argument("--z-im", type=finite, default=0.1)
    fx.add_argument("--tol", type=finite, default=1e-7)
    fx.add_argument("--grid", type=int, default=65)

    de = sub.add_parser("density", help="limiting spectral density table")
    _common(de)
    de.add_argument("--e-max", type=finite, default=2.0)
    de.add_argument("--points", type=int, default=21)

    pd = sub.add_parser("population-dynamics", help="pool for the recursive law")
    _common(pd)
    pd.add_argument("--z-re", type=finite, default=0.0)
    pd.add_argument("--z-im", type=finite, default=0.2)
    pd.add_argument("--pool", type=int, default=100000)
    pd.add_argument("--sweeps", type=int, default=30)
    pd.add_argument("--K", type=int, default=200)

    ks = sub.add_parser("kernel-scan", help="Fredholm determinant scan over alpha")
    _common(ks, with_alpha=False)
    ks.add_argument("--alpha-min", type=finite, default=1.1)
    ks.add_argument("--alpha-max", type=finite, default=1.9)
    ks.add_argument("--step", type=finite, default=0.05)
    ks.add_argument("--nodes", type=int, default=64)
    ks.add_argument("--no-refine", action="store_true")
    return p


def solve_fixed_point(cfg, args) -> RunRecord:
    quad = QuadratureConfig().scaled(cfg.quad_scale)
    sol = solve_gamma_star(complex(args.z_re, args.z_im), cfg.alpha,
                           tol=args.tol, m=args.grid, quad=quad)
    return RunRecord("solve-fixed-point", cfg.select("alpha", "quad_scale"),
                     fields=sol.checkpoint(quad))


def density(cfg, args) -> RunRecord:
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    quad = QuadratureConfig().scaled(cfg.quad_scale)
    es = np.linspace(0.0, args.e_max, args.points)
    vals, errs = spectral_density(es, cfg.alpha, quad=quad)
    return RunRecord("density", cfg.select("alpha", "quad_scale"),
                     columns=("E", "f_star", "eta_used", "extrapolation_error"),
                     rows=tuple((e, val, ETA_LADDER[-1], err)
                                for e, val, err in zip(es, vals, errs)))


def pool_run(cfg, args) -> RunRecord:
    z = complex(args.z_re, args.z_im)
    pool = population_dynamics(z, cfg.alpha, args.pool, args.sweeps, args.K,
                               substream(cfg.master_seed, 0xB0D))
    m1, se1 = pool_moment(pool, 1.0, "abs")
    m2, se2 = pool_moment(pool, 2.0, "abs")
    return RunRecord("population-dynamics", cfg.select("alpha", "master_seed"), fields={
        "z_re": z.real, "z_im": z.imag, "alpha": cfg.alpha,
        "pool_size": args.pool, "sweeps": args.sweeps, "K": args.K,
        "converged": pool.converged, "m_history": list(pool.m_history),
        "E_abs_R": m1, "se_abs_R": se1, "replica_se_abs_R": replica_se(pool, 1.0),
        "E_abs_R2": m2, "se_abs_R2": se2, "replica_se_abs_R2": replica_se(pool, 2.0),
    })


def kernel_scan(cfg, args) -> RunRecord:
    if not args.step > 0:
        raise ValueError(f"--step must be positive, got {args.step}")
    if not args.alpha_min <= args.alpha_max:
        raise ValueError(f"--alpha-min {args.alpha_min} exceeds "
                         f"--alpha-max {args.alpha_max}")
    check_nodes(args.nodes)
    grid = np.arange(args.alpha_min, args.alpha_max + 0.5 * args.step, args.step)
    results, failures = alpha_scan(grid, n_nodes=args.nodes, refine=not args.no_refine)
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
    "sample-spectrum": lambda cfg, args: run_sample_spectrum(cfg, args.n),
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
