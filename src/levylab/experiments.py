"""Reproducible batch experiments and the one writer of every artifact.

Every run is a deterministic function of the serialized config and the
subcommand's own arguments: sample seeds are pre-derived from (master
seed, sample index), rows carry full provenance, and aggregates are
re-computable bit-for-bit from the rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .fixed_point import SAMPLE_ERRORS, QuadratureConfig, stieltjes_mass
from .localization import interval_stats
from .matrix_model import (
    build_levy_matrix,
    eigendecompose,
    eigenvalue_counting,
    resolvent_diagonal,
)

_FMT = "%.17g"

SEED_SCHEME = ("seed = high 63 bits of SeedSequence(master_seed, "
               "spawn_key=(n, sample_index))")


def derived_seed(master_seed: int, *path: int) -> int:
    """Stable 63-bit sample seed for (master seed, index path)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float
    n_list: tuple[int, ...] = (500, 1000, 2000)
    master_seed: int = 1
    n_seeds: int = 20
    energies: tuple[float, ...] = (0.0,)
    interval_rule: str = "rho_prime"  # "rho" | "rho_prime" | "fixed"
    fixed_width: float = 0.25
    eta: float | None = None  # resolvent scale; default = interval half-width
    eta_ladder: tuple[float, ...] = (0.1, 0.05, 0.025)
    quad_scale: float = 1.0

    def interval_width(self, n: int) -> float:
        """Window width per rule; the theorem exponents are
        rho = alpha/(2+3 alpha) and rho' = min(alpha/(4+alpha), 1/4)."""
        if self.interval_rule == "fixed":
            return self.fixed_width
        if self.interval_rule == "rho":
            rho = self.alpha / (2.0 + 3.0 * self.alpha)
        elif self.interval_rule == "rho_prime":
            rho = min(self.alpha / (4.0 + self.alpha), 0.25)
        else:
            raise ValueError(f"unknown interval rule {self.interval_rule!r}")
        return n ** (-rho) * np.log(n) ** 2

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        obj = json.loads(text)
        for key in ("n_list", "energies", "eta_ladder"):
            if key in obj and obj[key] is not None:
                obj[key] = tuple(obj[key])
        return ExperimentConfig(**obj)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


@dataclass(frozen=True)
class RunRecord:
    """One run of one subcommand: what was asked and what came out.

    ``args`` are the subcommand's own arguments (never the output
    directory or the config path); ``fields`` are result values written
    at the top level of the metadata file; ``skipped`` holds one
    ``"<ExceptionType>: <message>"`` note per skipped sample.
    """

    kind: str
    config: ExperimentConfig
    args: dict = field(default_factory=dict)
    columns: tuple[str, ...] = ()
    rows: tuple[tuple, ...] = ()
    fields: dict = field(default_factory=dict)
    skipped: tuple[str, ...] = ()
    version: str = __version__

    @property
    def config_hash(self) -> str:
        text = self.config.to_json() + json.dumps(self.args, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _mean_se(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return np.nan, np.nan
    se = arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else np.nan
    return float(arr.mean()), float(se)


def _samples(cfg: ExperimentConfig, skipped: list):
    """Yield (n, seed, eigendecomposition) for every sample of the run.

    A sample whose build or eigensolve raises one of ``SAMPLE_ERRORS`` is
    noted in ``skipped``; more than 10% skipped fails the run.
    """
    for n in cfg.n_list:
        for k in range(cfg.n_seeds):
            seed = derived_seed(cfg.master_seed, n, k)
            try:
                sd = eigendecompose(build_levy_matrix(n, cfg.alpha, seed))
            except SAMPLE_ERRORS as exc:
                skipped.append(f"{type(exc).__name__}: n={n} seed={seed}: {exc}")
                continue
            yield n, seed, sd
    total = len(cfg.n_list) * cfg.n_seeds
    if len(skipped) > 0.1 * total:
        raise RuntimeError(f"{len(skipped)}/{total} samples failed")


# ---------------------------------------------------------------------------
# localization transition sweep
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("alpha", "n", "seed", "E", "half_width",
                 "count", "Q", "Pi", "renyi_half")


def aggregate_sweep(rows, columns=SWEEP_COLUMNS) -> dict:
    """Per-(n, E) mean/SE of Q over non-empty windows; bit-reproducible."""
    i_n, i_e = columns.index("n"), columns.index("E")
    i_c, i_q = columns.index("count"), columns.index("Q")
    out = {}
    keys = sorted({(r[i_n], r[i_e]) for r in rows})
    for n, e in keys:
        qs = [r[i_q] for r in rows
              if r[i_n] == n and r[i_e] == e and r[i_c] > 0]
        counts = [r[i_c] for r in rows if r[i_n] == n and r[i_e] == e]
        mean_q, se_q = _mean_se(qs)
        out[f"n={n},E={e}"] = {
            "mean_Q": mean_q, "se_Q": se_q,
            "mean_count": float(np.mean(counts)),
            "samples": len(counts), "empty": len(counts) - len(qs),
        }
    return out


def run_transition_sweep(cfg: ExperimentConfig) -> RunRecord:
    """Q_I across (n, seed, E) with the configured window rule.

    Per-sample failures (``SAMPLE_ERRORS``) are recorded and skipped; the
    run fails only if more than 10% of the samples fail.
    """
    rows = []
    skipped = []
    for n, seed, sd in _samples(cfg, skipped):
        w = cfg.interval_width(n)
        for e in cfg.energies:
            st = interval_stats(sd, (e - 0.5 * w, e + 0.5 * w), cfg.alpha)
            if st.is_empty:
                rows.append((cfg.alpha, n, seed, e, 0.5 * w, 0, "", "", ""))
            else:
                rows.append((cfg.alpha, n, seed, e, 0.5 * w, st.count,
                             st.Q, st.Pi, st.renyi_half))
    return RunRecord("localization-sweep", cfg, columns=SWEEP_COLUMNS,
                     rows=tuple(rows),
                     fields={"aggregates": aggregate_sweep(rows)},
                     skipped=tuple(skipped))


# ---------------------------------------------------------------------------
# local law
# ---------------------------------------------------------------------------

LOCAL_LAW_COLUMNS = ("alpha", "n", "seed", "E", "a", "b",
                     "count_frac", "mean_abs_R2")


def aggregate_local_law(rows, mu_star: dict,
                        columns=LOCAL_LAW_COLUMNS) -> dict:
    i_n, i_e = columns.index("n"), columns.index("E")
    i_f, i_r = columns.index("count_frac"), columns.index("mean_abs_R2")
    out = {}
    for n, e in sorted({(r[i_n], r[i_e]) for r in rows}):
        fr = [r[i_f] for r in rows if r[i_n] == n and r[i_e] == e]
        r2 = [r[i_r] for r in rows if r[i_n] == n and r[i_e] == e]
        mean_f, se_f = _mean_se(fr)
        mean_r, _ = _mean_se(r2)
        mu = mu_star[e]
        out[f"n={n},E={e}"] = {
            "mean_count_frac": mean_f, "se_count_frac": se_f,
            "mu_star": mu, "abs_error": abs(mean_f - mu),
            "mean_abs_R2": mean_r, "samples": len(fr),
        }
    return out


def run_local_law(cfg: ExperimentConfig) -> RunRecord:
    """Empirical window mass against the limiting measure, plus the
    second resolvent moment (1/n) sum |R_kk(E + i eta)|^2."""
    quad = QuadratureConfig().scaled(cfg.quad_scale)
    cache: dict = {}
    mu_star = {}
    widths = {e: cfg.interval_width(max(cfg.n_list)) for e in cfg.energies}
    for e in cfg.energies:
        w = widths[e]
        mu_star[e] = stieltjes_mass(e - 0.5 * w, e + 0.5 * w, cfg.alpha,
                                    eta_ladder=cfg.eta_ladder, quad=quad,
                                    cache=cache)
    rows = []
    skipped = []
    for n, seed, sd in _samples(cfg, skipped):
        for e in cfg.energies:
            w = widths[e]
            a, b = e - 0.5 * w, e + 0.5 * w
            frac = eigenvalue_counting(sd, a, b) / n
            eta = cfg.eta if cfg.eta is not None else 0.5 * w
            rd = resolvent_diagonal(sd, complex(e, eta))
            rows.append((cfg.alpha, n, seed, e, a, b, frac,
                         float(np.mean(np.abs(rd.values) ** 2))))
    return RunRecord("local-law", cfg, columns=LOCAL_LAW_COLUMNS,
                     rows=tuple(rows),
                     fields={"aggregates": aggregate_local_law(rows, mu_star)},
                     skipped=tuple(skipped))


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _format_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _FMT % x


def emit(record: RunRecord, output_dir: str | Path) -> list[Path]:
    """Write the record's artifacts; returns the created paths.

    ``<kind>-<hash>.csv`` holds the rows (documented header, full float
    precision, LF) when the record is tabular; ``<kind>-<hash>.meta.json``
    holds the config, its hash, the provenance and the result fields.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{record.kind}-{record.config_hash}"
    meta = {
        "kind": record.kind,
        "config": asdict(record.config),
        "args": record.args,
        "config_hash": record.config_hash,
        "version": record.version,
        "seed_scheme": SEED_SCHEME,
        "skipped": list(record.skipped),
        **record.fields,
    }
    paths = []
    if record.columns:
        meta["columns"] = list(record.columns)
        rows_path = out / f"{stem}.csv"
        with open(rows_path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(record.columns)
            for row in record.rows:
                writer.writerow([_format_cell(x) for x in row])
        paths.append(rows_path)
    meta_path = out / f"{stem}.meta.json"
    meta_path.write_text(json.dumps(meta, indent=1, sort_keys=True))
    return paths + [meta_path]


def read_rows(path: str | Path, columns) -> list[tuple]:
    """Parse an emitted CSV back into typed rows (round-trip inverse)."""
    int_cols = {"n", "seed", "count"}
    str_ok = {"Q", "Pi", "renyi_half"}
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != tuple(columns):
            raise ValueError("unexpected CSV header")
        for raw in reader:
            row = []
            for name, cell in zip(columns, raw):
                if name in int_cols:
                    row.append(int(cell))
                elif cell == "" and name in str_ok:
                    row.append("")
                else:
                    row.append(float(cell))
            rows.append(tuple(row))
    return rows
