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
import os
import platform
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .fixed_point import SAMPLE_ERRORS, QuadratureConfig, stieltjes_mass
from .localization import interval_stats
from .matrix_model import (
    SpectralDecomposition,
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


INTERVAL_RULES = ("rho", "rho_prime", "fixed")


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float
    n_list: tuple[int, ...] = (500, 1000, 2000)
    master_seed: int = 1
    n_seeds: int = 20
    energies: tuple[float, ...] = (0.0,)
    interval_rule: str = "rho_prime"  # one of INTERVAL_RULES
    fixed_width: float = 0.25
    quad_scale: float = 1.0

    def __post_init__(self):
        # outside (0, 2) every sample would fail and be counted as a skip
        if not 0 < self.alpha < 2:
            raise ValueError(f"config key 'alpha' must lie strictly inside (0, 2), "
                             f"got {self.alpha}")
        # an empty sample grid would run no sample and still write a file
        if not self.n_list or min(self.n_list) < 1:
            raise ValueError(f"config key 'n_list' must hold sizes of at least 1, "
                             f"got {list(self.n_list)}")
        if not self.energies:
            raise ValueError("config key 'energies' must not be empty")
        if self.n_seeds < 1:
            raise ValueError(f"config key 'n_seeds' must be at least 1, got {self.n_seeds}")
        if self.interval_rule not in INTERVAL_RULES:
            raise ValueError(f"config key 'interval_rule' must be one of "
                             f"{', '.join(map(repr, INTERVAL_RULES))}, "
                             f"got {self.interval_rule!r}")
        # json reads Infinity and NaN, which would fail deep in a solve or write
        # E=inf rows; zero quad_scale would run the 9-node floor of every rule
        for key in ("energies", "fixed_width", "quad_scale"):
            if not np.all(np.isfinite(value := getattr(self, key))):
                raise ValueError(f"config key {key!r} must be finite, got {json.dumps(value)}")
            if key != "energies" and not value > 0:
                raise ValueError(f"config key {key!r} must be positive, got {value}")

    def interval_width(self, n: int) -> float:
        """Window width per rule; the theorem exponents are
        rho = alpha/(2+3 alpha) and rho' = min(alpha/(4+alpha), 1/4)."""
        if self.interval_rule == "fixed":
            return self.fixed_width
        if self.interval_rule == "rho":
            rho = self.alpha / (2.0 + 3.0 * self.alpha)
        else:
            rho = min(self.alpha / (4.0 + self.alpha), 0.25)
        return n ** (-rho) * np.log(n) ** 2

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        """The config in ``text``; a ValueError names an unknown key or a
        key whose value has the wrong JSON type."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("a config must be a JSON object")
        types = {f.name: f.type for f in fields(ExperimentConfig)}
        unknown = sorted(set(obj) - set(types))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in obj.items():
            # "tuple[int, ...]" is a JSON list of ints; an int is a float too
            item = types[key].removeprefix("tuple[").removesuffix(", ...]")
            many = item != types[key]
            kind = {"int": int, "float": (int, float), "str": str}[item]
            if (many and not isinstance(value, list)) or any(
                    isinstance(v, bool) or not isinstance(v, kind)
                    for v in (value if many else [value])):
                raise ValueError(f"config key {key!r} must be {types[key]}, got {value!r}")
            obj[key] = tuple(value) if many else value
        return ExperimentConfig(**obj)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})

    def select(self, *keys: str) -> dict:
        """The given keys and their values: the config of a record whose
        run reads only these keys."""
        return {key: getattr(self, key) for key in keys}


#: every config key, all of which ``local-law`` reads
CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


@dataclass(frozen=True)
class RunRecord:
    """One run of one subcommand: what was asked and what came out.

    ``config`` holds the config keys the run reads and their values
    (``ExperimentConfig.select``), so a key it never reads cannot change
    its name; it is None for a run that reads no config (``kernel-scan``).
    ``args`` are the subcommand's own arguments (never the output
    directory or the config path); ``fields`` are result values written
    at the top level of the metadata file; ``skipped`` holds one
    ``"<ExceptionType>: <message>"`` note per skipped sample.
    """

    kind: str
    config: dict | None
    args: dict = field(default_factory=dict)
    columns: tuple[str, ...] = ()
    rows: tuple[tuple, ...] = ()
    fields: dict = field(default_factory=dict)
    skipped: tuple[str, ...] = ()

    @property
    def config_hash(self) -> str:
        text = json.dumps(self.config, sort_keys=True) + json.dumps(self.args, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _mean_se(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return np.nan, np.nan
    se = arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else np.nan
    return float(arr.mean()), float(se)


#: the last batch's decompositions, keyed by (n, alpha, seed); see ``_batch``
_HELD: dict[tuple[int, float, int], SpectralDecomposition] = {}


def _batch(kind: str, cfg: ExperimentConfig, read, columns, rows, aggregate=None) -> RunRecord:
    """The record of ``rows(n, seed, sd)``, each sample's rows, in (n, seed)
    order, with aggregates ``aggregate(rows)`` if given; its config holds
    the keys ``read``.

    A sample whose build or eigensolve raises one of ``SAMPLE_ERRORS`` is
    noted in ``skipped``; more than 10% skipped fails the run, naming the
    first note.  Samples are decomposed largest first, so that the smaller
    ones' arrays fill the blocks a larger eigensolve freed instead of
    raising the heap's top; rows and notes keep the (n, seed) order.

    The process holds the decompositions of the last batch, keyed by
    (n, alpha, seed), so a following batch over the same samples builds
    and decomposes none of them again: a ``local-law`` after a
    ``localization-sweep`` of one config, or a sweep after a
    ``sample-spectrum`` (sample 0 of its size, a batch of one).  A batch
    takes over the held samples it asks for and drops the rest before its
    first build.  It is held only if its eigenvectors fit in the memory
    one eigensolve of its largest matrix needs anyway, 8 * 4 * n_max**2
    bytes (the matrix, LAPACK's copy and 2 n**2 of workspace); a larger
    batch is not held.  A skipped sample is never held, and held arrays
    are read-only.  Separate processes share nothing.
    """
    keys = [(n, float(cfg.alpha), derived_seed(cfg.master_seed, n, k))
            for n in cfg.n_list for k in range(cfg.n_seeds)]
    reuse = {key: _HELD.get(key) for key in keys}
    _HELD.clear()
    hold = sum(n * n for n, _, _ in keys) <= 4 * max(cfg.n_list) ** 2
    done = [None] * len(keys)  # per sample: its rows, or its skip note
    for i in sorted(range(len(keys)), key=lambda i: -keys[i][0]):
        n, _, seed = key = keys[i]
        sd = reuse.pop(key, None)  # None also for a size listed twice
        if sd is None:
            try:
                sd = eigendecompose(build_levy_matrix(n, cfg.alpha, seed))
            except SAMPLE_ERRORS as exc:
                done[i] = f"{type(exc).__name__}: n={n} seed={seed}: {exc}"
                continue
        if hold:
            sd.eigenvalues.setflags(write=False)
            sd.eigenvectors.setflags(write=False)
            _HELD[key] = sd
        done[i] = list(rows(n, seed, sd))
    skipped = [d for d in done if isinstance(d, str)]
    out = [r for d in done if not isinstance(d, str) for r in d]
    if len(skipped) > 0.1 * len(keys):
        raise RuntimeError(f"{len(skipped)}/{len(keys)} samples failed; first: {skipped[0]}")
    return RunRecord(kind, cfg.select(*read), columns=columns, rows=tuple(out),
                     fields={"aggregates": aggregate(out)} if aggregate else {},
                     skipped=tuple(skipped))


def run_sample_spectrum(cfg: ExperimentConfig, n: int) -> RunRecord:
    """The ascending eigenvalues of sample 0 at size n, the sample every
    batch over n at this alpha and master seed starts with."""
    if n < 1:
        raise ValueError(f"sample size n must be at least 1, got {n}")
    return _batch("sample-spectrum", replace(cfg, n_list=(n,), n_seeds=1),
                  ("alpha", "master_seed"), ("index", "eigenvalue"),
                  lambda n, seed, sd: enumerate(sd.eigenvalues))


def _cells(rows, columns) -> list:
    """``((n, E), rows)`` per cell, sorted by (n, E), rows kept in order."""
    i_n, i_e = columns.index("n"), columns.index("E")
    cells = {}
    for r in rows:
        cells.setdefault((r[i_n], r[i_e]), []).append(r)
    return sorted(cells.items())


# ---------------------------------------------------------------------------
# localization transition sweep
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("alpha", "n", "seed", "E", "half_width",
                 "count", "Q", "Pi", "renyi_half")


def aggregate_sweep(rows, columns=SWEEP_COLUMNS) -> dict:
    """Per-(n, E) mean/SE of Q over non-empty windows; bit-reproducible."""
    i_c, i_q = columns.index("count"), columns.index("Q")
    out = {}
    for (n, e), cell in _cells(rows, columns):
        qs = [r[i_q] for r in cell if r[i_c] > 0]
        mean_q, se_q = _mean_se(qs)
        out[f"n={n},E={e}"] = {
            "mean_Q": mean_q, "se_Q": se_q,
            "mean_count": float(np.mean([r[i_c] for r in cell])),
            "samples": len(cell), "empty": len(cell) - len(qs),
        }
    return out


def run_transition_sweep(cfg: ExperimentConfig) -> RunRecord:
    """Q_I across (n, seed, E) with the configured window rule.

    Per-sample failures (``SAMPLE_ERRORS``) are recorded and skipped; the
    run fails only if more than 10% of the samples fail.
    """
    def rows(n, seed, sd):
        w = cfg.interval_width(n)
        for e in cfg.energies:
            st = interval_stats(sd, (e - 0.5 * w, e + 0.5 * w), cfg.alpha)
            stats = ("", "", "") if st.is_empty else (st.Q, st.Pi, st.renyi_half)
            yield (cfg.alpha, n, seed, e, 0.5 * w, st.count) + stats

    read = tuple(key for key in CONFIG_KEYS if key != "quad_scale")
    return _batch("localization-sweep", cfg, read, SWEEP_COLUMNS, rows, aggregate_sweep)


# ---------------------------------------------------------------------------
# local law
# ---------------------------------------------------------------------------

LOCAL_LAW_COLUMNS = ("alpha", "n", "seed", "E", "a", "b",
                     "count_frac", "mean_abs_R2")


def aggregate_local_law(rows, mu_star: dict) -> dict:
    i_f, i_r = (LOCAL_LAW_COLUMNS.index(c) for c in ("count_frac", "mean_abs_R2"))
    out = {}
    for (n, e), cell in _cells(rows, LOCAL_LAW_COLUMNS):
        mean_f, se_f = _mean_se([r[i_f] for r in cell])
        mean_r, _ = _mean_se([r[i_r] for r in cell])
        mu = mu_star[e]
        out[f"n={n},E={e}"] = {
            "mean_count_frac": mean_f, "se_count_frac": se_f,
            "mu_star": mu, "abs_error": abs(mean_f - mu),
            "mean_abs_R2": mean_r, "samples": len(cell),
        }
    return out


def run_local_law(cfg: ExperimentConfig) -> RunRecord:
    """Empirical window mass against the limiting measure, plus the
    second resolvent moment (1/n) sum |R_kk(E + i eta)|^2, eta = |I|/2."""
    quad = QuadratureConfig().scaled(cfg.quad_scale)
    w = cfg.interval_width(max(cfg.n_list))
    energies = np.array(cfg.energies, dtype=float)
    mu_star = dict(zip(cfg.energies, stieltjes_mass(
        energies - 0.5 * w, energies + 0.5 * w, cfg.alpha, quad=quad).tolist()))

    def rows(n, seed, sd):
        for e in cfg.energies:
            a, b = e - 0.5 * w, e + 0.5 * w
            frac = eigenvalue_counting(sd, a, b) / n
            rd = resolvent_diagonal(sd, complex(e, 0.5 * w))
            yield (cfg.alpha, n, seed, e, a, b, frac,
                   float(np.mean(np.abs(rd.values) ** 2)))

    return _batch("local-law", cfg, CONFIG_KEYS, LOCAL_LAW_COLUMNS, rows,
                  lambda rows: aggregate_local_law(rows, mu_star))


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _format_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _FMT % x


def numeric_environment() -> dict:
    """The builds and BLAS thread settings that the numbers depend on
    (eigenvalues move in the last digits between BLAS thread counts);
    an unset thread variable is None."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        **{var: os.environ.get(var)
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def emit(record: RunRecord, output_dir: str | Path) -> list[Path]:
    """Write the record's artifacts; returns the created paths.

    ``<kind>-<hash>.csv`` holds the rows (documented header, full float
    precision, LF) when the record is tabular; ``<kind>-<hash>.meta.json``
    holds the config, its hash, the provenance (``numeric_environment``
    among it) and the result fields.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{record.kind}-{record.config_hash}"
    meta = {
        "kind": record.kind,
        "config": record.config,
        "args": record.args,
        "config_hash": record.config_hash,
        "version": __version__,
        "seed_scheme": SEED_SCHEME,
        "environment": numeric_environment(),
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
