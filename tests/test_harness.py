import dataclasses

import numpy as np
import pytest

from netshuffle import cli, harness
from netshuffle.data import load_cifar10, partition_data
from netshuffle.harness import (ConfigError, ExperimentConfig, canonical_text,
                                config_from_file, config_from_mapping,
                                config_hash, run_sweep, verify)
from netshuffle.stepsize import ConstantSchedule

SMALL = ExperimentConfig(
    objective="quadratic", n=8, m=3, dim=3, data_seed=1,
    graph="ring", methods=("gtrr", "dsgd"), epochs=8, seeds=(0, 1, 2),
    stepsize="const:0.01",
)


# ---------------------------------------------------------------------------
# partitioning and data
# ---------------------------------------------------------------------------


def test_partition_heterogeneous_two_labels_pure(rng):
    samples = rng.normal(size=(12, 2))
    labels = np.array([1.0] * 6 + [-1.0] * 6)
    idx = partition_data(samples, labels, n=2, m=6, heterogeneous=True)
    assert set(labels[idx[0]]) == {-1.0}
    assert set(labels[idx[1]]) == {1.0}


def test_partition_homogeneous_ratio_within_ten_percent(rng):
    labels = np.array([1.0, -1.0] * 200)
    samples = rng.normal(size=(400, 2))
    idx = partition_data(samples, labels, n=4, m=100, heterogeneous=False, seed=3)
    for i in range(4):
        ratio = np.mean(labels[idx[i]] == 1.0)
        assert abs(ratio - 0.5) <= 0.1


def test_partition_single_agent_gets_everything(rng):
    samples = rng.normal(size=(5, 2))
    labels = np.ones(5)
    idx = partition_data(samples, labels, n=1, m=5, heterogeneous=True)
    assert sorted(idx[0].tolist()) == [0, 1, 2, 3, 4]


def test_partition_insufficient_samples(rng):
    with pytest.raises(ValueError, match="only"):
        partition_data(rng.normal(size=(5, 2)), np.ones(5), n=2, m=3,
                       heterogeneous=False)


def test_cifar_loader_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    records = []
    labels = [0, 9, 3, 0, 9, 5, 9, 0]
    for lab in labels:
        rec = np.concatenate([[lab], rng.integers(0, 256, size=3072)])
        records.append(rec.astype(np.uint8))
    (tmp_path / "data_batch_1").write_bytes(np.concatenate(records).tobytes())
    feats, labs = load_cifar10(tmp_path)
    assert feats.shape == (6, 3072)  # classes 3 and 5 filtered out
    assert feats.min() >= 0.0 and feats.max() <= 1.0
    assert np.sum(labs == 1.0) == 3 and np.sum(labs == -1.0) == 3
    with pytest.raises(FileNotFoundError):
        load_cifar10(tmp_path / "missing")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "objective.family = logistic\n"
        "objective.n = 4\n"
        "run.methods = gtrr, drr\n"
        "run.seeds = 0, 3\n"
        "topology.graph = grid:2x2\n"
    )
    cfg = config_from_file(path)
    assert cfg.objective == "logistic"
    assert cfg.n == 4
    assert cfg.methods == ("gtrr", "drr")
    assert cfg.seeds == (0, 3)
    assert cfg.graph == "grid:2x2"


def test_config_hash_sensitivity():
    a = config_hash(SMALL)
    assert a == config_hash(ExperimentConfig(**vars(SMALL) if hasattr(SMALL, "__dict__") else {}))  # noqa: E501
    import dataclasses
    b = config_hash(dataclasses.replace(SMALL, epochs=9))
    assert a != b
    assert "run.epochs = 8" in canonical_text(SMALL)
    # execution details are not semantic
    c = dataclasses.replace(SMALL, outdir="elsewhere")
    assert config_hash(c) == a


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping({"run.turbo": "1"})


def test_config_booleans_parse_strictly():
    for text in ("1", "true", "YES", "On"):
        assert config_from_mapping({"run.inner_metrics": text}).inner_metrics is True
    for text in ("0", "False", "no", "OFF"):
        assert config_from_mapping({"run.inner_metrics": text}).inner_metrics is False
    with pytest.raises(ConfigError, match="run.inner_metrics"):
        config_from_mapping({"run.inner_metrics": "ture"})


def _sweep_exit(tmp_path, capsys, *argv, config=""):
    """Exit code and stderr of a small `netshuffle sweep` with extra flags and
    an optional config file body."""
    path = tmp_path / "bad.cfg"
    path.write_text(config)
    code = cli.main(["sweep", "--config", str(path), "--n", "4", "--m", "2",
                     "--epochs", "1", "--out", str(tmp_path), *argv])
    return code, capsys.readouterr().err


def test_negative_epochs_is_config_error(tmp_path, capsys):
    code, err = _sweep_exit(tmp_path, capsys, "--epochs", "-3")
    assert code == cli.EXIT_CONFIG and "run.epochs" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flag,key", [("--n", "objective.n"), ("--m", "objective.m"),
                                      ("--dim", "objective.dim")])
def test_sizes_below_one_are_config_errors(tmp_path, capsys, flag, key):
    code, err = _sweep_exit(tmp_path, capsys, flag, "0")
    assert code == cli.EXIT_CONFIG and key in err


@pytest.mark.parametrize("line,key", [("run.sampling = shuffled", "run.sampling"),
                                      ("objective.family = Logistic", "objective.family"),
                                      ("run.init = zeros", "run.init"),
                                      ("run.regime = pl", "run.regime")])
def test_enumerated_key_outside_its_choices_is_config_error(tmp_path, capsys, line, key):
    code, err = _sweep_exit(tmp_path, capsys, config=line + "\n")
    assert code == cli.EXIT_CONFIG and key in err and "expected one of" in err


def _other_value(field):
    """A value for `field` that differs from its default."""
    if field.type == "bool":
        return not field.default
    if field.type in ("int", "float"):
        return field.default + 3
    if field.name == "seeds":
        return (3, 4)
    if field.name == "methods":
        return ("drr", "gtrr")
    if field.metadata["choices"]:
        return next(c for c in field.metadata["choices"] if c != field.default)
    return "x" + field.default


def _as_text(value):
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def test_every_config_field_has_one_key_and_one_flag(tmp_path):
    fields = dataclasses.fields(ExperimentConfig)
    keys = [harness._FIELD_TO_KEY[f.name] for f in fields]
    assert len(set(keys)) == len(fields) == len(harness._KEYMAP)
    parser = cli.build_parser()
    sweep = parser._subparsers._group_actions[0].choices["sweep"]
    cli_only = {"--config", "--no-hetero", "--auto-stepsize"}
    flags = {}
    for action in sweep._actions:
        for opt in set(action.option_strings) - cli_only - {"-h", "--help"}:
            flags.setdefault(action.dest, []).append(opt)
    assert set(flags) == {f.name for f in fields}
    for field, key in zip(fields, keys):
        assert len(flags[field.name]) == 1, field.name
        value = _other_value(field)
        path = tmp_path / f"{field.name}.cfg"
        path.write_text(f"{key} = {_as_text(value)}\n")
        assert getattr(config_from_file(path), field.name) == value, key
        if field.type == "bool":  # a bare flag sets true: start from a file saying false
            path.write_text(f"{key} = false\n")
            argv, expected = ["--config", str(path), flags[field.name][0]], True
        else:
            argv, expected = [flags[field.name][0], _as_text(value)], value
        args = parser.parse_args(["sweep", *argv])
        assert getattr(cli._config_from_args(args), field.name) == expected, argv
    # the hashed key set is part of every CSV's provenance
    assert config_hash(ExperimentConfig()) == "90e9268fb5af6e07"


def test_invalid_graph_is_config_error():
    import dataclasses
    cfg = dataclasses.replace(SMALL, graph="moebius")
    with pytest.raises(ConfigError):
        harness.build_mix(cfg)


def test_custom_edge_file_graph(tmp_path):
    import dataclasses
    edges = tmp_path / "edges.txt"
    edges.write_text("# a 4-path\n0 1\n1 2\n2 3\n")
    cfg = dataclasses.replace(SMALL, n=4, graph=f"custom:{edges}")
    mix = harness.build_mix(cfg)
    assert mix.n == 4
    assert mix.w[0, 1] > 0 and mix.w[0, 2] == 0.0
    edges.write_text("0 1\n2 3\n")
    with pytest.raises(ConfigError, match="not connected"):
        harness.build_mix(cfg)


def test_grid_spec_and_objective_agree_or_error(tmp_path):
    import dataclasses
    cfg = dataclasses.replace(SMALL, n=8, graph="grid:2x4",
                              outdir=str(tmp_path))
    run_sweep(cfg)  # consistent: 2x4 grid with n=8 objective
    bad = dataclasses.replace(cfg, n=6)
    with pytest.raises(ConfigError, match="disagree"):
        run_sweep(bad)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_zero_epochs_single_row(tmp_path):
    import dataclasses
    cfg = dataclasses.replace(SMALL, epochs=0, methods=("gtrr",), seeds=(0,),
                              outdir=str(tmp_path))
    written = run_sweep(cfg)
    per_seed = tmp_path / "gtrr_seed0.csv"
    assert per_seed in written
    lines = [l for l in per_seed.read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 2  # header + one data row


def test_sweep_aggregate_is_seed_mean(tmp_path):
    import dataclasses
    cfg = dataclasses.replace(SMALL, outdir=str(tmp_path))
    written = run_sweep(cfg)
    per_seed = [written[tmp_path / f"gtrr_seed{s}.csv"] for s in (0, 1, 2)]
    mean = written[tmp_path / "gtrr_mean.csv"]
    for row in range(len(mean)):
        expected = np.mean([rs[row].grad_norm_sq for rs in per_seed])
        assert mean[row].grad_norm_sq == pytest.approx(expected, rel=1e-15)


def test_sweep_rerun_byte_identical(tmp_path):
    import dataclasses
    cfg1 = dataclasses.replace(SMALL, outdir=str(tmp_path / "a"))
    cfg2 = dataclasses.replace(SMALL, outdir=str(tmp_path / "b"))
    run_sweep(cfg1)
    run_sweep(cfg2)
    for name in ("gtrr_seed0.csv", "gtrr_seed2.csv", "gtrr_mean.csv",
                 "dsgd_seed1.csv", "dsgd_mean.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_sweep_invalid_combination_surfaces_before_running(tmp_path):
    import dataclasses
    # exact diffusion on the plain ring (indefinite W) must fail fast
    cfg = dataclasses.replace(SMALL, methods=("gtrr", "edrr"),
                              outdir=str(tmp_path))
    with pytest.raises(ConfigError, match="lazify"):
        run_sweep(cfg)
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_auto_stepsize_asserts_admissible(tmp_path):
    import dataclasses
    cfg = dataclasses.replace(SMALL, methods=("gtrr",), stepsize="auto",
                              regime="ncvx", outdir=str(tmp_path))
    written = run_sweep(cfg)
    assert (tmp_path / "gtrr_mean.csv") in written
    cfg = dataclasses.replace(cfg, methods=("crr",))
    with pytest.raises(ConfigError, match="auto"):
        run_sweep(cfg)


def test_auto_stepsize_above_bound_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr(harness.stepsize, "recommend_alpha",
                        lambda *args, **kwargs: ConstantSchedule(1e6))
    cfg = dataclasses.replace(SMALL, methods=("gtrr",), stepsize="auto",
                              outdir=str(tmp_path))
    with pytest.raises(ConfigError, match="admissible bound"):
        run_sweep(cfg)
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_builds_each_transform_once(tmp_path, monkeypatch):
    calls = []
    build = harness.unified.transform_data
    monkeypatch.setattr(harness.unified, "transform_data",
                        lambda op: calls.append(op) or build(op))
    run_sweep(dataclasses.replace(SMALL, outdir=str(tmp_path)))
    assert len(calls) == 1  # gtrr only; three seeds share it


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["spectral", "abc", "gradcheck"])
def test_verify_suites_pass(suite):
    results = verify(suite)
    assert results
    failures = [c for c in results if not c.passed]
    assert not failures, "\n".join(c.line() for c in failures)


def test_verify_unknown_suite():
    with pytest.raises(ConfigError):
        verify("nope")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_spectrum_and_constants(capsys):
    assert cli.main(["spectrum", "--graph", "ring", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "lambda = 0.949" in out
    assert cli.main(["constants", "--abc", "gtrr", "--graph", "ring", "--n", "8",
                     "--m", "4", "--epochs", "50"]) == 0
    out = capsys.readouterr().out
    assert "gamma = " in out and "alpha_ncvx = " in out


def test_cli_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = cli.main([
        "run", "--objective", "quadratic", "--n", "8", "--m", "3", "--dim", "3",
        "--graph", "ring", "--method", "gtrr", "--epochs", "5", "--seed", "0",
        "--stepsize", "const:0.01", "--outfile", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("# config_hash = ")
    assert "t,alpha,grad_norm_sq" in text


def test_cli_config_error_exit_code(capsys):
    code = cli.main(["run", "--graph", "hexagon", "--method", "gtrr",
                     "--epochs", "1", "--seed", "0"])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_divergence_exit_code(tmp_path, capsys):
    code = cli.main([
        "sweep", "--objective", "quadratic", "--n", "8", "--m", "3", "--dim", "3",
        "--graph", "ring", "--method", "drr", "--epochs", "30", "--seed", "0,1",
        "--stepsize", "const:50.0", "--init-scale", "1.0",
        "--out", str(tmp_path)])
    assert code == cli.EXIT_DIVERGED


def test_cli_verify_subset(capsys):
    assert cli.main(["verify", "--suite", "spectral"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_cli_verify_all(capsys):
    assert cli.main(["verify", "--suite", "all"]) == 0
    assert "31/31 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("spec,graph", [("gtrr", []), ("edrr", ["--tau", "0.5"]),
                                        ("custom:0,1/1,-1/0,1", [])],
                         ids=["gtrr", "edrr", "custom"])
def test_cli_verify_abc_runs_the_operator_check(spec, graph, capsys):
    assert cli.main(["verify", "--suite", "spectral", "--n", "8", "--abc", spec,
                     *graph]) == 0
    out = capsys.readouterr().out
    for check in ("two-variable == transformed", "gamma < 1"):
        assert f"[PASS] abc {spec}: {check}" in out


@pytest.mark.parametrize("spec", ["bogus", "custom:0,1/1,-1", "custom:0,1/x/0,1", "edrr"])
def test_cli_verify_bad_abc_is_config_error(spec, capsys):
    # edrr on the plain ring is rejected: its W is indefinite
    assert cli.main(["verify", "--suite", "spectral", "--abc", spec]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--abc" in captured.err and not captured.out
