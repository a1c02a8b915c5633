import hashlib
import json
import math
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from levylab import cli, experiments, kernel_spectrum, matrix_model
from levylab import fixed_point as fp
from levylab.cli import main
from levylab.experiments import (
    ExperimentConfig,
    RunRecord,
    aggregate_local_law,
    aggregate_sweep,
    derived_seed,
    emit,
    read_rows,
    run_local_law,
    run_transition_sweep,
)


def small_cfg(**kw):
    base = dict(alpha=1.0, n_list=(50, 70), master_seed=3, n_seeds=3,
                energies=(0.0,), interval_rule="fixed", fixed_width=0.5)
    base.update(kw)
    return ExperimentConfig(**base)


def config_json(cfg: ExperimentConfig) -> str:
    """The config file text for cfg: its fields as sorted-key JSON, the
    form whose hash names local-law's files."""
    return json.dumps(asdict(cfg), sort_keys=True)


def test_interval_rule_arithmetic():
    cfg = ExperimentConfig(alpha=0.5, interval_rule="rho")
    # rho = 0.5/3.5 = 1/7 and rho' = 0.5/4.5 = 1/9
    n = 1000
    assert abs(cfg.interval_width(n) - n ** (-1 / 7) * np.log(n) ** 2) < 1e-12
    cfgp = ExperimentConfig(alpha=0.5, interval_rule="rho_prime")
    assert abs(cfgp.interval_width(n) - n ** (-1 / 9) * np.log(n) ** 2) < 1e-12
    cfgf = ExperimentConfig(alpha=0.5, interval_rule="fixed", fixed_width=0.3)
    assert cfgf.interval_width(n) == 0.3
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=0.5, interval_rule="bogus").interval_width(n)


def test_config_json_round_trip():
    cfg = small_cfg()
    back = ExperimentConfig.from_json(config_json(cfg))
    assert back == cfg
    assert RunRecord("k", asdict(back)).config_hash == RunRecord("k", asdict(cfg)).config_hash


def test_derived_seeds_are_stable_and_distinct():
    a = derived_seed(5, 100, 0)
    assert a == derived_seed(5, 100, 0)
    assert a != derived_seed(5, 100, 1)
    assert a != derived_seed(6, 100, 0)


def test_sweep_determinism_and_roundtrip(tmp_path):
    cfg = small_cfg()
    rec1 = run_transition_sweep(cfg)
    experiments._HELD.clear()  # two cold computations, not a held rerun
    rec2 = run_transition_sweep(cfg)
    assert rec1.rows == rec2.rows
    assert rec1.fields == rec2.fields
    p1 = emit(rec1, tmp_path / "a")
    p2 = emit(rec2, tmp_path / "b")
    assert p1[0].read_bytes() == p2[0].read_bytes()
    rows = read_rows(p1[0], rec1.columns)
    assert tuple(rows) == rec1.rows
    assert aggregate_sweep(rows) == rec1.fields["aggregates"]


def test_emitted_schema(tmp_path):
    cfg = small_cfg()
    rec = run_transition_sweep(cfg)
    csv_path, meta_path = emit(rec, tmp_path)
    assert csv_path.name == f"localization-sweep-{rec.config_hash}.csv"
    assert meta_path.name == f"localization-sweep-{rec.config_hash}.meta.json"
    header = csv_path.read_text().splitlines()[0]
    assert header == "alpha,n,seed,E,half_width,count,Q,Pi,renyi_half"
    meta = json.loads(meta_path.read_text())
    assert meta["config_hash"] == rec.config_hash
    assert meta["columns"] == list(rec.columns)
    assert meta["skipped"] == []
    assert "seed_scheme" in meta


def test_metadata_names_the_numeric_environment(tmp_path, monkeypatch):
    import platform

    import scipy
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    rec = RunRecord("k", asdict(small_cfg()), args={"n": 40})
    meta = json.loads(emit(rec, tmp_path)[0].read_text())
    env = meta["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    assert env["blas"] and env["blas_version"]
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] is None
    assert set(env) == {"python", "numpy", "scipy", "blas", "blas_version",
                        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    # another environment changes the metadata's contents, not its name
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    (other,) = emit(rec, tmp_path / "other")
    assert other.name == emit(rec, tmp_path)[0].name
    assert json.loads(other.read_text())["environment"]["OPENBLAS_NUM_THREADS"] == "2"


def test_hash_covers_config_and_arguments():
    cfg = small_cfg()
    base = RunRecord("k", asdict(cfg), args={"n": 40})
    assert RunRecord("k", asdict(cfg), args={"n": 41}).config_hash != base.config_hash
    assert RunRecord("k", asdict(small_cfg(master_seed=4)), args={"n": 40}).config_hash \
        != base.config_hash


def test_empty_windows_are_blank_not_zero(tmp_path):
    cfg = small_cfg(energies=(50.0,), fixed_width=0.01, n_seeds=2)
    rec = run_transition_sweep(cfg)
    csv_path, _ = emit(rec, tmp_path)
    line = csv_path.read_text().splitlines()[1]
    assert line.endswith(",0,,,")
    agg = list(rec.fields["aggregates"].values())[0]
    assert agg["empty"] >= 1


def test_empty_windows_round_trip_as_blanks(tmp_path):
    rec = run_transition_sweep(small_cfg(energies=(0.0, 50.0)))
    rows = read_rows(emit(rec, tmp_path)[0], rec.columns)
    assert tuple(rows) == rec.rows
    i_c = rec.columns.index("count")
    empty = [r for r in rows if r[i_c] == 0]
    assert len(empty) == 6  # every sample at E = 50
    assert all(r[i_c + 1:] == ("", "", "") for r in empty)
    # NaN means and SEs of the empty cells compare equal as JSON text
    assert (json.dumps(aggregate_sweep(rows), sort_keys=True)
            == json.dumps(rec.fields["aggregates"], sort_keys=True))


def test_read_rows_rejects_a_wrong_header(tmp_path):
    rec = run_transition_sweep(small_cfg(n_list=(50,), n_seeds=1))
    with pytest.raises(ValueError, match="unexpected CSV header"):
        read_rows(emit(rec, tmp_path)[0], experiments.LOCAL_LAW_COLUMNS)


def test_local_law_record(tmp_path):
    cfg = small_cfg(alpha=1.0, n_list=(80,), n_seeds=3, fixed_width=0.4)
    rec = run_local_law(cfg)
    aggregates = rec.fields["aggregates"]
    agg = aggregates["n=80,E=0.0"]
    assert 0 <= agg["mean_count_frac"] <= 1
    assert agg["mu_star"] > 0
    assert np.isfinite(agg["mean_abs_R2"])
    rows = read_rows(emit(rec, tmp_path)[0], rec.columns)
    assert aggregate_local_law(rows, {0.0: agg["mu_star"]}) == aggregates


def _failing_eigendecompose(monkeypatch, exc_type, first_only=True):
    original = experiments.eigendecompose
    calls = []

    def fake(matrix):
        calls.append(1)
        if len(calls) == 1 or not first_only:
            raise exc_type("injected failure")
        return original(matrix)
    monkeypatch.setattr(experiments, "eigendecompose", fake)


def test_sample_failures_are_typed_skips(monkeypatch):
    cfg = small_cfg(n_seeds=5)  # 10 samples, so one skip stays within 10%
    _failing_eigendecompose(monkeypatch, np.linalg.LinAlgError)
    rec = run_transition_sweep(cfg)
    # the largest samples are decomposed first
    assert rec.skipped == (f"LinAlgError: n=70 seed={derived_seed(3, 70, 0)}: "
                           "injected failure",)
    assert len(rec.rows) == 9
    _failing_eigendecompose(monkeypatch, ValueError, first_only=False)
    first = f"ValueError: n=50 seed={derived_seed(3, 50, 0)}: injected failure"
    with pytest.raises(RuntimeError, match=re.escape(f"10/10 samples failed; first: {first}")):
        run_transition_sweep(cfg)


def test_a_failed_sample_spectrum_names_its_sample(monkeypatch, tmp_path, capsys):
    _failing_eigendecompose(monkeypatch, np.linalg.LinAlgError)
    out = tmp_path / "out"
    assert main(["sample-spectrum", "--n", "40", "--seed", "5", "--out", str(out)]) == 1
    note = f"LinAlgError: n=40 seed={derived_seed(5, 40, 0)}: injected failure"
    assert capsys.readouterr().err == f"sample-spectrum failed: 1/1 samples failed; first: {note}\n"
    assert main(["sample-spectrum", "--n", "0", "--out", str(out)]) == 1
    assert "sample size n must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_unexpected_errors_propagate(monkeypatch):
    _failing_eigendecompose(monkeypatch, TypeError)
    with pytest.raises(TypeError):
        run_transition_sweep(small_cfg())


def _cli(argv, capsys):
    rc = main(argv)
    return rc, [Path(line) for line in capsys.readouterr().out.splitlines()]


#: subcommand -> (arguments, expected CSV header or None, CSV line count)
CLI_CASES = {
    "sample-spectrum": (["--n", "40", "--alpha", "1.2", "--seed", "5"],
                        "index,eigenvalue", 41),
    "localization-sweep": (["--config", "{sweep}"],
                           ",".join(experiments.SWEEP_COLUMNS), 7),
    "local-law": (["--config", "{local_law}"],
                  ",".join(experiments.LOCAL_LAW_COLUMNS), 4),
    "solve-fixed-point": (["--alpha", "1.0", "--z-im", "0.05", "--tol", "1e-6",
                           "--grid", "33"], None, 0),
    "density": (["--alpha", "1.0", "--e-max", "0.4", "--points", "3"],
                "E,f_star,eta_used,extrapolation_error", 4),
    "population-dynamics": (["--alpha", "1.0", "--z-im", "0.4", "--pool", "4000",
                             "--sweeps", "10", "--K", "50", "--seed", "3"], None, 0),
    "kernel-scan": (["--alpha-min", "1.3", "--alpha-max", "1.4", "--step", "0.1",
                     "--nodes", "32", "--no-refine"],
                    "re_alpha,im_alpha,m,n_nodes,det_re,det_im,abs_det,"
                    "abs_det_deflated,refinement_delta,candidate_minimum", 3),
}


@pytest.mark.parametrize("command", list(CLI_CASES))
def test_cli_rerun_is_byte_identical(command, tmp_path, capsys):
    configs = {
        "sweep": small_cfg(),
        "local_law": small_cfg(n_list=(80,), n_seeds=3, fixed_width=0.4),
    }
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(config_json(cfg))
    extra, header, n_lines = CLI_CASES[command]
    argv = [command] + [a.format(**{k: tmp_path / f"{k}.json" for k in configs})
                        for a in extra]
    runs = {}
    for i, sub in enumerate(("a", "b")):
        # kernel-scan reads no config, so a new master seed must not rename it
        seed = ["--seed", str(i + 1)] if command == "kernel-scan" else []
        experiments._HELD.clear()  # each run cold, not a held rerun
        rc, printed = _cli(argv + seed + ["--out", str(tmp_path / sub)], capsys)
        assert rc == 0
        assert sorted(printed) == sorted((tmp_path / sub).iterdir())
        runs[sub] = {p.name: p.read_bytes() for p in printed}
    assert runs["a"] == runs["b"]

    names = sorted(runs["a"])
    (meta_name,) = [n for n in names if n.endswith(".meta.json")]
    meta = json.loads(runs["a"][meta_name])
    assert meta_name == f"{command}-{meta['config_hash']}.meta.json"
    assert meta["kind"] == command
    assert meta["version"] and meta["seed_scheme"] and meta["skipped"] == []
    if header is None:
        assert names == [meta_name]
    else:
        assert names == [f"{command}-{meta['config_hash']}.csv", meta_name]
        lines = runs["a"][names[0]].decode().splitlines()
        assert lines[0] == header
        assert len(lines) == n_lines
    if command in ("localization-sweep", "local-law"):
        assert meta["aggregates"]
    if command == "solve-fixed-point":
        sol = fp.FixedPointSolution.from_checkpoint(runs["a"][meta_name])
        assert sol.residual <= 1e-6 and sol.gamma.values.size == 33
    if command == "population-dynamics":
        assert meta["E_abs_R"] > 0 and meta["K"] == 50
    if command == "kernel-scan":
        assert meta["config"] is None


ALL_KEYS = {f.name for f in fields(ExperimentConfig)}

#: subcommand -> (the config keys it reads, a change to a key it never reads)
CONFIG_READS = {
    "sample-spectrum": ({"alpha", "master_seed"}, {"n_list": [60]}),
    "population-dynamics": ({"alpha", "master_seed"}, {"n_list": [60]}),
    "solve-fixed-point": ({"alpha", "quad_scale"}, {"master_seed": 4}),
    "density": ({"alpha", "quad_scale"}, {"master_seed": 4}),
    "localization-sweep": (ALL_KEYS - {"quad_scale"}, {"quad_scale": 0.5}),
}


@pytest.mark.parametrize("command", list(CONFIG_READS))
def test_a_config_key_the_run_never_reads_does_not_rename_it(command, tmp_path, capsys):
    keys, unread = CONFIG_READS[command]
    extra = [a for a in CLI_CASES[command][0] if a not in ("--config", "{sweep}")]
    base = json.loads(config_json(small_cfg(n_list=(50,), n_seeds=2)))
    runs = []
    for i, change in enumerate(({}, unread)):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps({**base, **change}))
        experiments._HELD.clear()
        rc, printed = _cli([command, "--config", str(cfg_path), *extra,
                            "--out", str(tmp_path / str(i))], capsys)
        assert rc == 0
        runs.append({p.name: p.read_bytes() for p in printed})
        (meta,) = [json.loads(b) for n, b in runs[-1].items() if n.endswith(".meta.json")]
        assert set(meta["config"]) == keys
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["density", "solve-fixed-point"])
def test_a_master_seed_the_run_never_reads_does_not_rename_it(command, tmp_path, capsys):
    runs = []
    for seed in ("1", "2"):
        rc, printed = _cli([command, *CLI_CASES[command][0], "--seed", seed,
                            "--out", str(tmp_path / seed)], capsys)
        assert rc == 0
        runs.append({p.name: p.read_bytes() for p in printed})
    assert runs[0] == runs[1]


def test_local_law_keeps_the_name_of_its_whole_config():
    # local-law reads every key: its name hashes the whole config's JSON
    # plus its arguments, so the names of files written earlier still match
    cfg = small_cfg(n_list=(40,), n_seeds=1)
    rec = run_local_law(cfg)
    assert rec.config == asdict(cfg)
    text = config_json(cfg) + json.dumps(rec.args, sort_keys=True)
    assert rec.config_hash == hashlib.sha256(text.encode()).hexdigest()[:16]


def test_cli_localization_sweep_with_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_json(small_cfg()))
    rc, out = _cli(["localization-sweep", "--config", str(cfg_path),
                    "--out", str(tmp_path)], capsys)
    assert rc == 0 and all(p.exists() for p in out)
    # seed override changes the output hash
    rc, out2 = _cli(["localization-sweep", "--config", str(cfg_path),
                     "--seed", "99", "--out", str(tmp_path)], capsys)
    assert rc == 0
    assert out2 != out


def test_density_honours_quad_scale(tmp_path, capsys):
    values = []
    for scale in (1.0, 0.5):
        cfg_path = tmp_path / f"cfg{scale}.json"
        cfg_path.write_text(config_json(ExperimentConfig(alpha=1.0, quad_scale=scale)))
        rc, (csv_path, _) = _cli(["density", "--config", str(cfg_path),
                                  "--e-max", "0.0", "--points", "1",
                                  "--out", str(tmp_path)], capsys)
        assert rc == 0
        values.append(csv_path.read_text().splitlines()[1])
    assert values[0].split(",")[0] == values[1].split(",")[0] == "0"
    assert values[0] != values[1]


def test_cli_failure_exits_1(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise fp.FixedPointError("no convergence")
    monkeypatch.setattr(cli, "solve_gamma_star", fail)
    rc = main(["solve-fixed-point", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "no convergence" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_density_lost_branch_exits_1(tmp_path, capsys, monkeypatch):
    s_p = fp.s_p

    def negative_density(z, x, p, alpha, quad=None):
        val = s_p(z, x, p, alpha, quad)
        return -np.abs(np.real(val)) - 1e-6 + 1j * np.imag(val) if p == 1.0 else val
    monkeypatch.setattr(fp, "s_p", negative_density)
    rc = main(["density", "--points", "3", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "branch tracking" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", ["--K", "--sweeps", "--pool"])
def test_population_dynamics_empty_size_exits_1(option, tmp_path, capsys):
    rc = main(["population-dynamics", option, "0", "--z-im", "0.2",
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "at least 1" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, reason", [
    (["kernel-scan", "--step", "0"], "--step must be positive"),
    (["kernel-scan", "--step", "-0.1"], "--step must be positive"),
    (["kernel-scan", "--alpha-min", "1.5", "--alpha-max", "1.4"], "exceeds --alpha-max"),
    (["density", "--points", "0"], "--points must be at least 1"),
])
def test_empty_grid_exits_1(argv, reason, tmp_path, capsys):
    rc = main(argv + ["--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert reason in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["localization-sweep", "local-law"])
@pytest.mark.parametrize("key, value, reason", [
    ("n_seeds", 0, "config key 'n_seeds' must be at least 1, got 0"),
    ("n_seeds", -2, "config key 'n_seeds' must be at least 1, got -2"),
    ("energies", [], "config key 'energies' must not be empty"),
    ("n_list", [], "config key 'n_list' must hold sizes of at least 1, got []"),
    ("n_list", [50, 0], "config key 'n_list' must hold sizes of at least 1, got [50, 0]"),
])
def test_empty_sample_grid_in_config_exits_1(command, key, value, reason, tmp_path, capsys):
    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text(json.dumps({**json.loads(config_json(small_cfg())), key: value}))
    with pytest.raises(ValueError, match=re.escape(reason)):
        ExperimentConfig.from_json(cfg_path.read_text())
    with pytest.raises(ValueError, match=re.escape(reason)):
        small_cfg().with_overrides(**{key: tuple(value) if isinstance(value, list) else value})
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert reason in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value, reason", [
    # quad_scale 0 ran on the 9-node floor of every rule and exited 0
    ("solve-fixed-point", "quad_scale", 0, "config key 'quad_scale' must be positive, got 0"),
    ("density", "quad_scale", -0.5, "config key 'quad_scale' must be positive, got -0.5"),
    ("localization-sweep", "fixed_width", 0, "config key 'fixed_width' must be positive, got 0"),
    ("local-law", "fixed_width", -0.25,
     "config key 'fixed_width' must be positive, got -0.25"),
    ("localization-sweep", "interval_rule", "rho_primed",
     "config key 'interval_rule' must be one of 'rho', 'rho_prime', 'fixed', "
     "got 'rho_primed'"),
    # alpha 0 failed every sample as a skip; density named a moment order
    ("localization-sweep", "alpha", 0,
     "config key 'alpha' must lie strictly inside (0, 2), got 0"),
    ("density", "alpha", -1, "config key 'alpha' must lie strictly inside (0, 2), got -1"),
    ("local-law", "alpha", 2.5,
     "config key 'alpha' must lie strictly inside (0, 2), got 2.5"),
    # json reads Infinity: quad_scale overflowed QuadratureConfig.scaled,
    # fixed_width failed a scalar solve at z=nan, energies wrote E=inf rows
    ("solve-fixed-point", "quad_scale", math.inf,
     "config key 'quad_scale' must be finite, got Infinity"),
    ("density", "quad_scale", math.nan, "config key 'quad_scale' must be finite, got NaN"),
    ("local-law", "fixed_width", math.inf,
     "config key 'fixed_width' must be finite, got Infinity"),
    ("localization-sweep", "energies", [0.0, -math.inf],
     "config key 'energies' must be finite, got [0.0, -Infinity]"),
])
def test_config_value_out_of_range_exits_1(command, key, value, reason, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({**json.loads(config_json(small_cfg())), key: value}))
    with pytest.raises(ValueError, match=re.escape(reason)):
        ExperimentConfig.from_json(cfg_path.read_text())
    with pytest.raises(ValueError, match=re.escape(reason)):
        small_cfg().with_overrides(**{key: value})
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert reason in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["localization-sweep", "density"])
def test_alpha_override_out_of_range_exits_1(command, tmp_path, capsys):
    rc = main([command, "--alpha", "0", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert ("config key 'alpha' must lie strictly inside (0, 2), got 0.0"
            in captured.err and captured.out == "")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, option, text", [
    # wrote "z_re": Infinity into the metadata and exited 0
    (["population-dynamics", "--z-re", "inf", "--pool", "100", "--sweeps", "2", "--K", "10"],
     "--z-re", "inf"),
    # failed deep in a scalar solve at z=(nan+nanj), naming no option
    (["density", "--e-max", "nan", "--points", "3"], "--e-max", "nan"),
    # failed with "last residual nan"
    (["solve-fixed-point", "--z-im", "nan"], "--z-im", "nan"),
])
def test_non_finite_float_option_is_refused_by_name(argv, option, text, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert exit_info.value.code == 1
    assert f"argument {option}: must be a finite number, got '{text}'" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["population-dynamics", "--no-such-option"],
    ["population-dynamics", "--pool", "many"],
    ["no-such-command"],
    [],
])
def test_refused_arguments_exit_1_with_usage(argv, tmp_path, capsys):
    # 2 is left to a partial run, which has written its files
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path / "out")] if argv else argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 1
    assert captured.err.startswith("usage: levylab") and "error: " in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["kernel-scan", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out


def test_kernel_scan_too_few_nodes_exits_1(tmp_path, capsys):
    # no alpha can be assembled on 8 nodes: one argument error before the
    # scan, not a partial run of 17 identical skips
    rc = main(["kernel-scan", "--nodes", "8", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "the Nystrom mesh cannot have 8 nodes" in captured.err and captured.out == ""
    assert captured.err.rstrip().endswith("nearest: 32")
    assert not (tmp_path / "out").exists()


def test_kernel_scan_refuses_a_node_count_the_mesh_rounds(tmp_path, capsys):
    # the mesh has a multiple of 16 nodes: 40 is refused, not run as 32
    rc = main(["kernel-scan", "--nodes", "40", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1 and "cannot have 40 nodes" in captured.err
    assert captured.err.rstrip().endswith("nearest: 32 or 48")
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_an_object_is_refused():
    with pytest.raises(ValueError, match="a config must be a JSON object"):
        ExperimentConfig.from_json("[1.0]")


@pytest.mark.parametrize("command, key, value", [
    # a config written when ExperimentConfig still had output_dir
    ("localization-sweep", "output_dir", "runs"),
    # a config written when it still had eta_ladder; this negative rung
    # kept density's continuation stepping for ever
    ("density", "eta_ladder", [0.1, -0.05]),
], ids=["output_dir", "eta_ladder"])
def test_config_with_unknown_key_exits_1(command, key, value, tmp_path, capsys):
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({**json.loads(config_json(small_cfg())), key: value}))
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_json(cfg_path.read_text())
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert key in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("energies", 0.5), ("n_list", None),
                                        ("n_seeds", "2")])
def test_config_with_a_mistyped_key_exits_1(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({**json.loads(config_json(small_cfg())), key: value}))
    rc = main(["localization-sweep", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"failed: config key {key!r}" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_kernel_scan_ignores_config(tmp_path, capsys):
    # kernel-scan reads no config: an outdated file neither fails the scan
    # nor changes a byte of its output
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({**json.loads(config_json(small_cfg())),
                                    "output_dir": "runs"}))
    argv = ["kernel-scan"] + CLI_CASES["kernel-scan"][0]
    runs = []
    for sub, extra in (("plain", []), ("config", ["--config", str(cfg_path)])):
        rc, printed = _cli(argv + extra + ["--out", str(tmp_path / sub)], capsys)
        assert rc == 0
        runs.append({p.name: p.read_bytes() for p in printed})
    assert runs[0] == runs[1] and len(runs[0]) == 2


def test_kernel_scan_skips_exit_2(tmp_path, capsys, monkeypatch):
    original = kernel_spectrum.assemble_H

    def assemble(alpha, *args, **kwargs):
        if alpha > 1.35:
            raise ValueError("injected failure")
        return original(alpha, *args, **kwargs)
    monkeypatch.setattr(kernel_spectrum, "assemble_H", assemble)
    rc, (csv_path, meta_path) = _cli(
        ["kernel-scan", "--alpha-min", "1.3", "--alpha-max", "1.4", "--step", "0.1",
         "--nodes", "32", "--no-refine", "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert len(csv_path.read_text().splitlines()) == 2
    (note,) = json.loads(meta_path.read_text())["skipped"]
    assert note.startswith("ValueError: alpha=1.4") and note.endswith("injected failure")


# ---------------------------------------------------------------------------
# decompositions held from one batch to the next
# ---------------------------------------------------------------------------

def _count_eigendecompose(monkeypatch, fail_seed=None):
    """Count ``experiments.eigendecompose`` calls; a matrix with seed
    ``fail_seed`` raises LinAlgError on every attempt."""
    original = experiments.eigendecompose
    calls = []

    def counted(matrix):
        calls.append((matrix.n, matrix.seed))
        if matrix.seed == fail_seed:
            raise np.linalg.LinAlgError("injected failure")
        return original(matrix)
    monkeypatch.setattr(experiments, "eigendecompose", counted)
    return calls


#: a batch that is held: 2 * 40**2 + 2 * 80**2 is within 4 * 80**2
HELD_CFG = dict(n_list=(40, 80), n_seeds=2)


def test_local_law_reuses_the_sweeps_decompositions(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_json(small_cfg(**HELD_CFG)))
    calls = _count_eigendecompose(monkeypatch)
    warm, cold = {}, {}
    for command in ("localization-sweep", "local-law"):
        rc, printed = _cli([command, "--config", str(cfg_path),
                            "--out", str(tmp_path / "warm")], capsys)
        assert rc == 0
        warm.update({p.name: p.read_bytes() for p in printed})
    # one eigensolve per sample: the local law decomposed nothing again
    assert len(set(calls)) == len(calls) == 4
    for command in ("localization-sweep", "local-law"):
        experiments._HELD.clear()
        rc, printed = _cli([command, "--config", str(cfg_path),
                            "--out", str(tmp_path / "cold")], capsys)
        assert rc == 0
        cold.update({p.name: p.read_bytes() for p in printed})
    assert len(calls) == 12
    assert len(warm) == 4 and warm == cold


#: sample-spectrum's sample: sample 0 at n = 40 of a batch over HELD_CFG
SPECTRUM_ARGV = ["sample-spectrum", "--n", "40", "--alpha", "1.0", "--seed", "3"]
SPECTRUM_KEY = (40, 1.0, derived_seed(3, 40, 0))


def _spectrum_csv(printed) -> np.ndarray:
    (path,) = [p for p in printed if p.suffix == ".csv"]
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)


def test_one_eigensolve_per_sample_from_sample_spectrum_to_local_law(
        tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_json(small_cfg(**HELD_CFG)))
    argvs = [SPECTRUM_ARGV] + [[command, "--config", str(cfg_path)]
                               for command in ("localization-sweep", "local-law")]
    calls = _count_eigendecompose(monkeypatch)
    warm, cold = {}, {}
    for argv in argvs:
        rc, printed = _cli(argv + ["--out", str(tmp_path / "warm")], capsys)
        assert rc == 0
        warm.update({p.name: p.read_bytes() for p in printed})
        if argv is SPECTRUM_ARGV:
            # it holds its one sample, read-only, and writes its eigenvalues
            (key, sd), = experiments._HELD.items()
            assert key == SPECTRUM_KEY
            assert not (sd.eigenvalues.flags.writeable or sd.eigenvectors.flags.writeable)
            lam = matrix_model.eigendecompose(matrix_model.build_levy_matrix(
                40, 1.0, SPECTRUM_KEY[2])).eigenvalues
            assert np.array_equal(_spectrum_csv(printed), lam)
    # one eigensolve per sample: the sweep took sample-spectrum's over
    assert len(set(calls)) == len(calls) == 4 and calls[0] == SPECTRUM_KEY[::2]
    for argv in argvs:
        experiments._HELD.clear()
        rc, printed = _cli(argv + ["--out", str(tmp_path / "cold")], capsys)
        assert rc == 0
        cold.update({p.name: p.read_bytes() for p in printed})
    assert len(calls) == 4 + 1 + 4 + 4
    assert len(warm) == 6 and warm == cold


def test_sample_spectrum_after_a_batch_solves_nothing(tmp_path, capsys, monkeypatch):
    calls = _count_eigendecompose(monkeypatch)
    run_local_law(small_cfg(**HELD_CFG))
    held = experiments._HELD[SPECTRUM_KEY]
    rc, printed = _cli(SPECTRUM_ARGV + ["--out", str(tmp_path)], capsys)
    assert rc == 0 and len(calls) == 4
    # the rest of the batch is dropped
    assert experiments._HELD == {SPECTRUM_KEY: held}
    assert np.array_equal(_spectrum_csv(printed), held.eigenvalues)


@pytest.mark.parametrize("change, hits", [
    ({"alpha": 1.2}, 0), ({"master_seed": 4}, 0), ({"n_list": (60,)}, 0),
    # the samples at n = 40 are the same (n, alpha, seed) in both batches
    ({"n_list": (40, 90)}, 2),
])
def test_held_samples_are_keyed_by_n_alpha_and_seed(change, hits, monkeypatch):
    calls = _count_eigendecompose(monkeypatch)
    run_transition_sweep(small_cfg(**HELD_CFG))
    other = small_cfg(**{**HELD_CFG, **change})
    run_local_law(other)
    assert len(calls) == 4 + len(other.n_list) * other.n_seeds - hits
    # only the last batch is held
    assert set(experiments._HELD) == {
        (n, other.alpha, derived_seed(other.master_seed, n, k))
        for n in other.n_list for k in range(other.n_seeds)}


@pytest.mark.parametrize("n_seeds, held", [(4, True), (5, False)])
def test_a_batch_over_the_bound_holds_nothing(n_seeds, held, monkeypatch):
    # four samples at n = 40 take 4 * 8 * 40**2 bytes of eigenvectors, the
    # bound itself; a fifth is over it
    cfg = small_cfg(n_list=(40,), n_seeds=n_seeds)
    calls = _count_eigendecompose(monkeypatch)
    first = run_transition_sweep(cfg)
    assert len(experiments._HELD) == (n_seeds if held else 0)
    again = run_transition_sweep(cfg)
    assert len(calls) == (n_seeds if held else 2 * n_seeds)
    assert again.rows == first.rows


def test_a_skipped_sample_is_not_held(monkeypatch):
    # 12 samples, so one skip stays within 10%; the bound is 4 * 60**2
    cfg = small_cfg(n_list=(10, 11, 12, 60), n_seeds=3)
    bad = derived_seed(3, 11, 1)
    calls = _count_eigendecompose(monkeypatch, fail_seed=bad)
    first = run_transition_sweep(cfg)
    note = f"LinAlgError: n=11 seed={bad}: injected failure"
    assert first.skipped == (note,) and len(experiments._HELD) == 11
    assert all(seed != bad for _, _, seed in experiments._HELD)
    again = run_local_law(cfg)
    assert again.skipped == (note,)
    assert calls[12:] == [(11, bad)]


def test_a_size_listed_twice_runs_twice():
    rec = run_transition_sweep(small_cfg(n_list=(40, 40), n_seeds=2))
    assert rec.rows[:2] == rec.rows[2:] and len(experiments._HELD) == 2
    assert run_transition_sweep(small_cfg(n_list=(40, 40), n_seeds=2)).rows == rec.rows


def test_held_arrays_are_read_only():
    run_transition_sweep(small_cfg(**HELD_CFG))
    assert len(experiments._HELD) == 4
    for sd in experiments._HELD.values():
        with pytest.raises(ValueError, match="read-only"):
            sd.eigenvectors[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sd.eigenvalues[0] = 1.0
