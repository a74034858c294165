import argparse
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from netshuffle import algorithms, cli, harness, metrics, shuffling, stepsize, topology
from netshuffle.data import load_cifar10, partition_data
from netshuffle.harness import (ConfigError, ExperimentConfig, canonical_text,
                                config_from_file, config_from_mapping,
                                config_hash, run_sweep, verify)
from netshuffle.objective import logistic_from_samples, make_nonconvex_logistic
from netshuffle.stepsize import ConstantSchedule, TheoryConstants

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


def write_cifar_batch(directory, labels):
    """A CIFAR-10 binary batch of random pixels with the given class labels."""
    rng = np.random.default_rng(0)
    records = [np.concatenate([[lab], rng.integers(0, 256, size=3072)]).astype(np.uint8)
               for lab in labels]
    (directory / "data_batch_1").write_bytes(np.concatenate(records).tobytes())


def test_cifar_loader_roundtrip(tmp_path):
    write_cifar_batch(tmp_path, [0, 9, 3, 0, 9, 5, 9, 0])
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


@pytest.mark.parametrize("flag,value,key", [
    ("--tau", "-0.5", "topology.tau"), ("--tau", "nan", "topology.tau"),
    ("--tau", "1", "topology.tau"), ("--tau", "1.5", "topology.tau"),
    ("--rho", "-1", "objective.rho"), ("--rho", "nan", "objective.rho"),
    ("--eta", "-0.1", "objective.eta"), ("--eta", "nan", "objective.eta"),
    ("--condition", "0.5", "objective.condition"),
    ("--condition", "nan", "objective.condition"),
    # every float key must be finite, bounded or not
    ("--condition", "inf", "objective.condition"), ("--rho", "inf", "objective.rho"),
    ("--spread", "nan", "objective.spread"),
    ("--hetero-scale", "nan", "objective.hetero_scale"),
    ("--scale", "inf", "objective.scale"), ("--init-scale", "nan", "run.init_scale"),
    ("--theta", "nan", "run.theta")])
def test_out_of_range_numbers_are_config_errors(tmp_path, capsys, flag, value, key):
    code, err = _sweep_exit(tmp_path, capsys, "--objective", "logistic", flag, value)
    assert code == cli.EXIT_CONFIG and key in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("spec", ["harmonic:0,0", "harmonic:-1,1", "const:-0.1",
                                  "const:0", "const:nan", "const:inf", "dec:1",
                                  "dec:0,5", "dec:20,0", "const:", "const:1/0",
                                  "plateau:0.1,-0.1", "plateau:"])
def test_bad_stepsize_is_config_error(tmp_path, capsys, spec):
    code, err = _sweep_exit(tmp_path, capsys, "--stepsize", spec)
    # a schedule fault is the key's, not the method's
    assert code == cli.EXIT_CONFIG and "run.stepsize" in err and "method '" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_decreasing_stepsize_without_strong_convexity_is_config_error(tmp_path, capsys):
    # rho = 0 makes the convex logistic's mu an exact 0, so dec's
    # theta / (mu m (t + K)) would divide by zero at t = 0
    code, err = _sweep_exit(tmp_path, capsys, "--objective", "logistic", "--rho", "0",
                            "--stepsize", "dec:0.5,1")
    assert code == cli.EXIT_CONFIG
    assert "run.stepsize: dec mu" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("family", ["logistic", "ncvx-logistic"])
def test_features_whose_smoothness_overflows_are_config_error(tmp_path, capsys, family):
    # scale 1e200 squares past the largest float, so L is inf and the auto
    # stepsize's offset cannot be rounded
    code, err = _sweep_exit(tmp_path, capsys, "--objective", family, "--scale", "1e200",
                            "--stepsize", "auto", "--regime", "pl-decreasing")
    assert code == cli.EXIT_CONFIG
    assert "objective.scale: the objective's L = inf is not finite" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flags,key", [(("--method", "gtrr,gtrr"), "run.methods"),
                                       (("--seed", "0,1,0"), "run.seeds")])
def test_repeated_method_or_seed_is_config_error(tmp_path, capsys, flags, key):
    code, err = _sweep_exit(tmp_path, capsys, *flags)
    assert code == cli.EXIT_CONFIG and key in err and "repeated" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flag", ["--method", "--seed"])
def test_repeated_list_flag_is_config_error_naming_it(tmp_path, capsys, flag):
    # argparse would keep only the last use: drr and seed 0 would be dropped
    argv = ["sweep", "--n", "4", "--m", "3", "--dim", "2", "--epochs", "3",
            "--method", "drr", "--seed", "0", flag, {"--method": "gtrr", "--seed": "1"}[flag],
            "--out", str(tmp_path / "d")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{flag}: given twice" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("argv,key", [
    (("--graph", "grid:4x"), "topology.graph"),
    (("--graph", "grid:3x3", "--n", "16"), "topology.graph"),
    (("--graph", "ring:5"), "topology.graph"),
    (("--graph", "custom:{tmp}/missing.txt"), "topology.graph"),
    (("--graph", "custom:{tmp}/letters.txt"), "topology.graph"),
    (("--seed=",), "run.seeds"),
    (("--method=",), "run.methods"),
    (("--objective", "logistic", "--cifar10", "{tmp}/missing"), "objective.cifar10"),
    (("--cifar10", "{tmp}"), "objective.cifar10"),
    (("--objective", "logistic", "--cifar10", "{tmp}"), "objective.cifar10"),
    (("--out", "{tmp}/letters.txt/out"), "run.outdir"),
    # flags are text, parsed and checked as file values are
    (("--n", "4.0"), "objective.n"), (("--tau", "half"), "topology.tau"),
    (("--seed", "0,x"), "run.seeds"), (("--init", "zeros"), "run.init"),
], ids=["grid-no-cols", "grid-size", "ring-arg", "edge-file-missing",
        "edge-file-letters", "no-seed", "no-method", "cifar10-missing",
        "cifar10-with-quadratic", "cifar10-short-batch", "outdir-under-file",
        "int-flag", "float-flag", "seed-flag", "choice-flag"])
def test_bad_input_is_config_error_naming_its_key(tmp_path, capsys, argv, key):
    (tmp_path / "letters.txt").write_text("a b\n")
    (tmp_path / "short.bin").write_bytes(bytes(100))  # not whole CIFAR-10 records
    code, err = _sweep_exit(tmp_path, capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == cli.EXIT_CONFIG and key in err and "method '" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_config_line_without_equals_is_config_error(tmp_path, capsys):
    code, err = _sweep_exit(tmp_path, capsys, config="run.epochs 3\n")
    assert code == cli.EXIT_CONFIG and "bad config line 'run.epochs 3'" in err


def test_dataset_is_refused_only_for_the_quadratic_family():
    with pytest.raises(ConfigError, match="objective.cifar10: the quadratic family"):
        config_from_mapping({"objective.cifar10": "data"})
    with pytest.raises(ConfigError, match="objective.cifar10"):
        config_from_mapping({"objective.family": "quadratic"},
                            ExperimentConfig(objective="logistic", cifar10="data"))
    for family in ("logistic", "ncvx-logistic"):
        cfg = config_from_mapping({"objective.family": family, "objective.cifar10": "data"})
        assert cfg.cifar10 == "data"


@pytest.mark.parametrize("method", ["ed", "edrr"])
def test_exact_diffusion_on_an_indefinite_grid_is_config_error(tmp_path, capsys, method):
    # the 4x4 grid's Metropolis W has lambda_min -0.43 < -1/3, where ed diverges
    code, err = _sweep_exit(tmp_path, capsys, "--method", method, "--graph", "grid:4x4",
                            "--n", "16")
    assert code == cli.EXIT_CONFIG and f"method '{method}'" in err and "lazify" in err
    assert not list(tmp_path.glob("*.csv"))


def test_primal_dual_reference_is_not_a_selectable_method(tmp_path, capsys):
    # harness.verify_abc builds it directly; a sweep cannot name it
    code, err = _sweep_exit(tmp_path, capsys, "--tau", "0.5", "--method", "edrr,edrr-pd")
    assert code == cli.EXIT_CONFIG and "method 'edrr-pd'" in err
    assert not list(tmp_path.glob("*.csv"))


def test_preset_operators_are_the_methods_with_a_transformed_state():
    from netshuffle.algorithms import METHODS
    assert set(harness.PRESET_OPERATORS) == {
        name for name, cls in METHODS.items() if "abc_state" in vars(cls)}


def test_range_bounds_admit_their_edges():
    cfg = config_from_mapping({"topology.tau": "0", "objective.condition": "1"})
    assert (cfg.tau, cfg.condition) == (0.0, 1.0)
    assert config_from_mapping({"objective.family": "logistic", "objective.rho": "0"}).rho == 0.0
    assert config_from_mapping({"objective.family": "ncvx-logistic",
                                "objective.eta": "0"}).eta == 0.0
    assert config_from_mapping({"topology.tau": "0.999"}).tau == 0.999


# a value away from its default for every family-specific key but cifar10,
# whose families `test_cifar10_config_feeds_both_logistic_families` covers
_FAMILY_KEY_VALUES = {"condition": 2.0, "hetero_scale": 2.0, "spread": 2.0, "rho": 0.7,
                      "eta": 0.7, "hetero": False, "scale": 2.0}


@pytest.mark.parametrize("family", sorted(harness.FAMILY_FIELDS))
def test_a_family_reads_its_keys_and_refuses_the_others(family):
    """Each family-specific key either changes the family's objective or is a
    config error naming it, so no key is hashed while it changes nothing."""
    base = ExperimentConfig(objective=family, n=4, m=3, dim=2, data_seed=2)
    X = np.random.default_rng(0).normal(size=(4, 2))

    def agents(cfg):
        obj = harness.build_objective(cfg)
        return obj.values_at(X), obj.stacked_agent_grads(X)

    assert set(_FAMILY_KEY_VALUES) | {"cifar10"} == {
        name for names in harness.FAMILY_FIELDS.values() for name in names}
    ref_values, ref_grads = agents(base)
    for name, value in _FAMILY_KEY_VALUES.items():
        if name in harness.FAMILY_FIELDS[family]:
            values, grads = agents(dataclasses.replace(base, **{name: value}))
            assert not (np.array_equal(values, ref_values)
                        and np.array_equal(grads, ref_grads)), name
            continue
        with pytest.raises(ConfigError, match=f"^objective.{name}: the {family} "
                                              "family ignores it"):
            dataclasses.replace(base, **{name: value})
    # a key left at its default passes, whoever reads it
    assert dataclasses.replace(base, **{name: getattr(ExperimentConfig(), name)
                                        for name in _FAMILY_KEY_VALUES}) == base


def test_cli_names_a_key_the_family_ignores(tmp_path, capsys):
    assert cli.main(["sweep", "--rho", "0.7", "--epochs", "1",
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "objective.rho: the quadratic family ignores it" in captured.err
    assert not captured.out and not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields,key", [
    (dict(epochs=-3), "run.epochs"), (dict(tau=1.5), "topology.tau"),
    (dict(init_scale=float("nan")), "run.init_scale"), (dict(methods=()), "run.methods"),
    (dict(seeds=(0, 0)), "run.seeds"), (dict(n=0), "objective.n"),
    (dict(condition=0.5), "objective.condition"), (dict(sampling="iid"), "run.sampling"),
    (dict(methods=("bogus",)), "run.methods"),
    (dict(objective="quadratic", cifar10="data"), "objective.cifar10"),
], ids=["epochs", "tau", "init_scale", "no-method", "repeated-seed", "n", "condition",
        "sampling-iid", "unknown-method", "cifar10-with-quadratic"])
@pytest.mark.parametrize("make", ["direct", "replace"])
def test_every_way_to_make_a_config_is_checked(tmp_path, make, fields, key):
    outdir = tmp_path / "out"
    with pytest.raises(ConfigError, match=f"^{key}: "):
        if make == "direct":
            cfg = ExperimentConfig(outdir=str(outdir), **fields)
        else:
            cfg = dataclasses.replace(ExperimentConfig(outdir=str(outdir)), **fields)
        run_sweep(cfg)
    assert not outdir.exists()


@pytest.mark.parametrize("make,key", [
    (lambda: ExperimentConfig(methods="gtrr"), "run.methods"),
    (lambda: ExperimentConfig(n="5"), "objective.n"),
    (lambda: ExperimentConfig(n=True), "objective.n"),
    (lambda: ExperimentConfig(epochs=2.5), "run.epochs"),
    (lambda: ExperimentConfig(seeds=(1.5,)), "run.seeds"),
    (lambda: ExperimentConfig(hetero="no"), "objective.hetero"),
    (lambda: ExperimentConfig(hetero=1), "objective.hetero"),
    (lambda: config_from_mapping({"run.seeds": [1.5]}), "run.seeds"),
], ids=["methods-text", "n-text", "n-bool", "epochs-float", "seed-float", "hetero-text",
        "hetero-int", "mapping-seed-float"])
def test_a_mistyped_value_is_config_error_naming_its_key(make, key):
    with pytest.raises(ConfigError, match=f"^{key}: expected "):
        make()


def test_a_value_has_one_hash_however_it_is_spelled():
    parser = cli.build_parser()
    spellings = [ExperimentConfig(condition=2), ExperimentConfig(condition=2.0),
                 cli._config_from_args(parser.parse_args(["sweep", "--condition", "2"])),
                 config_from_mapping({"objective.condition": 2})]
    assert all(type(cfg.condition) is float for cfg in spellings)
    assert len({config_hash(cfg) for cfg in spellings}) == 1
    # a list field takes a list or a tuple and stores a tuple
    assert ExperimentConfig(seeds=[np.int64(3), 1], methods=["drr"]).seeds == (3, 1)


def test_choice_lists_and_help_come_from_the_modules_that_dispatch_on_them():
    meta = {f.name: f.metadata for f in dataclasses.fields(ExperimentConfig)}
    assert meta["sampling"]["choices"] is shuffling.RESHUFFLE_MODES
    assert meta["init"]["choices"] is algorithms.INIT_MODES
    assert meta["regime"]["choices"] is stepsize.REGIMES
    assert meta["graph"]["help"] == "|".join(topology.GRAPH_SPECS)
    assert meta["stepsize"]["help"].split(" | ") == [
        *(f"{kind}:{args}" for kind, args in stepsize.SCHEDULE_FORMS.items()), "auto"]
    assert meta["methods"]["help"].endswith(",".join(sorted(algorithms.METHODS)))


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
        below = field.metadata["below"]  # a bounded key moves inside its range
        return field.default + 3 if below is None else (field.default + below) / 2
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
    cli_only = {"--config", "--no-hetero"}
    flags = {}
    for action in sweep._actions:
        for opt in set(action.option_strings) - cli_only - {"-h", "--help"}:
            flags.setdefault(action.dest, []).append(opt)
    assert set(flags) == {f.name for f in fields}
    for field, key in zip(fields, keys):
        assert len(flags[field.name]) == 1, field.name
        value = _other_value(field)
        # a family-specific key needs a family that reads it
        family = [name for name, reads in harness.FAMILY_FIELDS.items()
                  if field.name in reads][:1]
        path = tmp_path / f"{field.name}.cfg"
        header = "".join(f"objective.family = {name}\n" for name in family)
        path.write_text(header + f"{key} = {_as_text(value)}\n")
        assert getattr(config_from_file(path), field.name) == value, key
        if field.type == "bool":  # a bare flag sets true: start from a file saying false
            path.write_text(header + f"{key} = false\n")
            argv, expected = ["--config", str(path), flags[field.name][0]], True
        else:
            argv, expected = [flags[field.name][0], _as_text(value)], value
        args = parser.parse_args(["sweep", *argv, *[arg for name in family
                                                    for arg in ("--objective", name)]])
        assert getattr(cli._config_from_args(args), field.name) == expected, argv
    # the hashed key set is part of every CSV's provenance
    assert config_hash(ExperimentConfig()) == "90e9268fb5af6e07"


def test_ncvx_logistic_config_builds_the_nonconvex_family():
    # data seed 2's f* estimate converges in a few ms; seeds 0, 1 and 3 of
    # this size take seconds or run to the iteration cap
    obj = harness.build_objective(ExperimentConfig(
        objective="ncvx-logistic", n=4, m=5, dim=3, eta=0.3, hetero=False,
        scale=2.0, data_seed=2))
    ref = make_nonconvex_logistic(4, 5, 3, 2, eta=0.3, heterogeneous=False, scale=2.0)
    assert type(obj) is type(ref) and obj.eta == 0.3
    assert np.array_equal(obj._scaled, ref._scaled)
    assert obj.constants.mu is None
    assert obj.constants.f_star == ref.constants.f_star
    assert np.linalg.norm(obj.grad(np.zeros(3))) > 0


@pytest.mark.parametrize("family", ["logistic", "ncvx-logistic"])
def test_cifar10_config_feeds_both_logistic_families(tmp_path, family):
    write_cifar_batch(tmp_path, [0, 9] * 4 + [3])
    weight = {"rho": 0.3} if family == "logistic" else {"eta": 0.4}
    obj = harness.build_objective(ExperimentConfig(
        objective=family, n=2, m=3, cifar10=str(tmp_path), **weight))
    feats, labels = load_cifar10(tmp_path)
    ref = logistic_from_samples(feats, labels, 2, 3, rho=0.3,
                                nonconvex_eta=0.4 if family == "ncvx-logistic" else None)
    assert type(obj) is type(ref) and obj.weight == ref.weight
    assert obj.p == 3072 and np.array_equal(obj._scaled, ref._scaled)


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


_SEVEN = ("crr", "drr", "dsgd", "dsgt", "gtrr", "ed", "edrr")
_SMALL_RUN = dict(n=8, m=4, dim=3, epochs=6, stepsize="const:0.05")
# sha256 over every CSV one sweep writes (sorted by name, each as its name,
# a NUL byte and its bytes), one sweep per method family and sampling path;
# every e_norm_sq and q_t cell of "transform methods" goes through the
# spectral transform.  Ring graphs take no eigh, so these bytes do not depend
# on the BLAS thread count.  All but "iid" were re-pinned when values_at took
# its GEMM and log1p softplus and small circulants their dense projection:
# only fgap_mean, e_norm_sq and q_t moved (CHANGES.md).
SWEEP_SHA256 = {
    "transform methods": (
        dict(n=16, m=10, dim=5, tau=0.5, methods=("gtrr", "edrr"), epochs=5,
             seeds=(0, 1), stepsize="const:0.001"),
        "64be825cad6abd4e4afae6b75edd3e69e34dc9494fa1ebb14f28c8798600f203"),
    "rr": (dict(objective="logistic", methods=("crr", "drr", "gtrr"), seeds=(0, 1)),
           "e5d31c19fbb324aaa1afe2c566c3a9ccf6471f6ad12321755d03a7b40318b2b6"),
    "lazy ring": (dict(objective="logistic", tau=0.5, methods=("edrr",), seeds=(0, 1)),
                  "49667cd2853f1587177a2ae69d98fd8ecc052dcdcafe43e441380ea8439e1325"),
    "iid": (dict(tau=0.5, methods=("dsgd", "dsgt", "ed"), seeds=(0, 1)),
            "3244b20cfd90e33cddaaef74fcf963f7361771db687e623bedd88ca9540ae410"),
    "inner metrics": (dict(m=3, tau=0.5, methods=_SEVEN, epochs=3, inner_metrics=True),
                      "004c486f4f229cd7005e9656845469e25e4d81572ec9b715773f8926beedd6e5"),
    "strict_alg2": (dict(tau=0.5, methods=("edrr",), strict_alg2=True),
                    "e58a8c86da76765cbc186483723ad62c21fa6d53e23514abcbf9024fd699ae78"),
    "once": (dict(tau=0.5, sampling="once", methods=("crr", "drr", "gtrr", "edrr")),
             "7debf982c0de7ad5a6dd16676b507a5d028831359afdd654c5f2338421b222ee"),
    "ncvx-logistic": (dict(objective="ncvx-logistic", m=3, tau=0.5, methods=_SEVEN,
                           epochs=3, inner_metrics=True),
                      "2d7c27cc62edc46b4cce0340d67fef6b3d93459d086a9b49b9dee5f3b3504f9e"),
    "logistic iid": (dict(objective="logistic", tau=0.5, methods=("dsgd", "dsgt", "ed"),
                          seeds=(0, 1)),
                     "57f493f213f79402107ce3642eeb696eaf7c8a1d3ce8214d6ae96ffd22910c9c"),
}


@pytest.mark.parametrize("case", sorted(SWEEP_SHA256))
def test_sweep_bytes_are_pinned(tmp_path, case):
    overrides, digest = SWEEP_SHA256[case]
    run_sweep(ExperimentConfig(outdir=str(tmp_path), **{**_SMALL_RUN, **overrides}))
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == digest


def _count_draws(monkeypatch) -> list:
    """Patch `PermutationStream._fill` to log the (seed, mode, keyed epoch)
    of every draw it makes."""
    fill, draws = shuffling.PermutationStream._fill, []

    def counted(stream, epoch, *args, **kwargs):
        draws.append((stream.master_seed, stream.mode,
                      0 if stream.mode == "once" else epoch))
        return fill(stream, epoch, *args, **kwargs)

    monkeypatch.setattr(shuffling.PermutationStream, "_fill", counted)
    return draws


def _count_kept(monkeypatch) -> list:
    """Patch `PermutationStream.epoch_orders` to log how many epochs of
    orders its stream keeps after each call."""
    epoch_orders, kept = shuffling.PermutationStream.epoch_orders, []

    def counted(stream, *args):
        orders = epoch_orders(stream, *args)
        kept.append(len({key[1] for key in stream._kept}))
        return orders

    monkeypatch.setattr(shuffling.PermutationStream, "epoch_orders", counted)
    return kept


@pytest.mark.parametrize("sampling,methods", [
    pytest.param("rr", ("gtrr", "edrr", "dsgt", "ed"), id="rr"),
    pytest.param("once", ("gtrr", "edrr", "dsgt", "ed"), id="once"),
    pytest.param("rr", ("dsgd", "dsgt", "ed"), id="iid")])
def test_sweep_draws_each_seeds_orders_once(tmp_path, monkeypatch, sampling, methods):
    draws, kept = _count_draws(monkeypatch), _count_kept(monkeypatch)
    seeds, T = (0, 1, 2), 4
    base = dict(_SMALL_RUN, tau=0.5, seeds=seeds, epochs=T, sampling=sampling)
    run_sweep(ExperimentConfig(outdir=str(tmp_path / "all"), methods=methods, **base))
    # the methods of a seed that sample alike share their orders; dsgt also
    # draws epoch T
    epochs = (0,) if sampling == "once" else range(T)
    reshuffled = {(s, sampling, t) for s in seeds for t in epochs}
    expected = ((reshuffled if methods[0] == "gtrr" else set())
                | {(s, "iid", t) for s in seeds for t in range(T + 1)})
    assert sorted(draws) == sorted(expected)
    assert 0 < max(kept) <= 2
    # one method alone draws each epoch once
    draws.clear()
    run_sweep(ExperimentConfig(outdir=str(tmp_path / "one"), methods=methods[:1], **base))
    assert len(draws) == len(seeds) * len(epochs if methods[0] == "gtrr" else range(T))


def _runs_one_at_a_time(cfg: ExperimentConfig, outdir: Path):
    """Write the CSVs of `run_sweep(cfg)` from one `algorithms.run` per
    (method, seed), each with its own order streams."""
    objective, mix, plans = harness.plan_runs(cfg)
    outdir.mkdir()
    for method in cfg.methods:
        transform, schedule = plans[method]
        per_seed = []
        for seed in cfg.seeds:
            traj = algorithms.run(
                method, objective, mix, schedule, cfg.epochs, seed, sampling=cfg.sampling,
                init=cfg.init, init_scale=cfg.init_scale, init_seed=cfg.data_seed,
                transform=transform, strict_alg2=cfg.strict_alg2,
                inner_metrics=cfg.inner_metrics)
            metrics.write_csv(outdir / f"{method}_seed{seed}.csv", traj,
                              harness.csv_metadata(cfg, method, objective, seed))
            per_seed.append(traj)
        metrics.write_csv(outdir / f"{method}_mean.csv", metrics.aggregate(per_seed),
                          harness.csv_metadata(cfg, method, objective))


# at condition 20 and stepsize 0.11 the methods of seed 0 pass the
# divergence bound at different epochs: crr at none, drr, gtrr and edrr at
# t = 36, dsgt and ed at t = 37
_LOCKSTEP_CASES = {
    **{case: {**_SMALL_RUN, **overrides} for case, (overrides, _) in SWEEP_SHA256.items()},
    "one diverges": dict(_SMALL_RUN, condition=20.0, tau=0.5, epochs=37,
                         stepsize="const:0.11", seeds=(0, 1),
                         methods=("crr", "drr", "gtrr", "edrr", "dsgt", "ed")),
    "rr and iid": dict(_SMALL_RUN, objective="logistic", tau=0.5, seeds=(0, 1, 2),
                       methods=("gtrr", "edrr", "dsgt", "ed")),
    # each run's plateau steps down on its own history
    "plateau": dict(_SMALL_RUN, objective="logistic", methods=("drr", "gtrr"), epochs=40,
                    stepsize="plateau:0.5,0.2,0.1", seeds=(0, 1)),
}


@pytest.mark.parametrize("case", sorted(_LOCKSTEP_CASES))
def test_lockstep_sweep_writes_the_bytes_of_one_run_at_a_time(tmp_path, case):
    cfg = ExperimentConfig(outdir=str(tmp_path / "sweep"), **_LOCKSTEP_CASES[case])
    written = run_sweep(cfg)
    _runs_one_at_a_time(cfg, tmp_path / "alone")
    names = sorted(path.name for path in (tmp_path / "sweep").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "alone").iterdir())
    for name in names:
        assert ((tmp_path / "sweep" / name).read_bytes()
                == (tmp_path / "alone" / name).read_bytes()), name
    if case == "one diverges":
        diverged = {path.name for path, traj in written.items()
                    if "seed" in path.name and traj[-1].diverged}
        assert "crr_seed0.csv" not in diverged and "drr_seed0.csv" in diverged


def test_lockstep_timings_count_only_each_runs_own_work(tmp_path, monkeypatch):
    # every epoch of drr takes 20 ms more; gtrr's clock must not see it
    epoch = algorithms.DRR.epoch

    def slow(self, *args, **kwargs):
        time.sleep(0.02)
        return epoch(self, *args, **kwargs)

    monkeypatch.setattr(algorithms.DRR, "epoch", slow)
    written = run_sweep(ExperimentConfig(outdir=str(tmp_path), methods=("drr", "gtrr"),
                                         timings=True, **_SMALL_RUN))
    walls = {method: written[tmp_path / f"{method}_seed0.csv"][-1].wall_ns
             for method in ("drr", "gtrr")}
    # a clock that ran through drr's epochs would read at least 120 ms
    assert walls["drr"] >= 6 * 20e6 > 2 * walls["gtrr"]


def test_ring512_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # n = 512 is large enough for a threaded BLAS to split a dense eigh
    sweep = ("import sys; from netshuffle.harness import ExperimentConfig, run_sweep; "
             "run_sweep(ExperimentConfig(objective='quadratic', n=512, m=8, dim=16, "
             "hetero=True, graph='ring', tau=0.5, methods=('gtrr', 'edrr'), epochs=3, "
             "stepsize='const:0.01', seeds=(0,), outdir=sys.argv[1]))")
    src = str(Path(harness.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", sweep, str(tmp_path / threads)],
                       env=env, check=True, timeout=300)
    names = sorted(path.name for path in (tmp_path / "1").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "2").iterdir())
    assert len(names) == 4
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_dense_projection_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the largest ring whose e_vector projects (n by 2 dim) densely: BLAS may
    # split that product, and values_at's GEMM, over threads
    work, dim = topology.DENSE_PROJECT_WORK, 2
    n = math.isqrt(work // (2 * dim))
    assert n * n * 2 * dim <= work < (n + 1) ** 2 * 2 * dim
    sweep = ("import sys; from netshuffle.harness import ExperimentConfig, run_sweep; "
             f"run_sweep(ExperimentConfig(objective='logistic', n={n}, m=4, dim={dim}, "
             "hetero=True, graph='ring', tau=0.5, methods=('gtrr', 'edrr'), epochs=3, "
             "stepsize='const:0.01', seeds=(0,), outdir=sys.argv[1]))")
    src = str(Path(harness.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", sweep, str(tmp_path / threads)],
                       env=env, check=True, timeout=300)
    names = sorted(path.name for path in (tmp_path / "1").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "2").iterdir())
    assert len(names) == 4
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_ring1024_sweep_memory_tracks_the_objective(tmp_path, monkeypatch):
    """Set-up and a 1-epoch gtrr/edrr sweep of a lazy 1024-ring hold little
    beyond the objective's own arrays: no dense W (8 MB), no dense operator
    and no (n, m, p, p) component stack (17 MB)."""
    import tracemalloc

    from netshuffle import unified
    realized = []
    poly_matrix = unified._poly_matrix
    monkeypatch.setattr(unified, "_poly_matrix",
                        lambda *args: realized.append(1) or poly_matrix(*args))
    cfg = ExperimentConfig(objective="quadratic", n=1024, m=8, dim=16, hetero=True,
                           graph="ring", tau=0.5, methods=("gtrr", "edrr"), epochs=1,
                           stepsize="const:0.01", seeds=(0,), outdir=str(tmp_path))
    tracemalloc.start()
    try:
        objective, mix, plans = harness.plan_runs(cfg)
        harness.run_seed(cfg, 0, objective, mix, plans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = objective.targets.nbytes + objective.t_agent.nbytes   # 1.18 MB
    # measured 3.67 MB, 3.1x; the matrix form with its blocked QR peaked at
    # 24.1 MB
    assert peak < 4 * own
    assert "w" not in vars(mix)
    assert realized == []


def test_sweep_invalid_combination_surfaces_before_running(tmp_path):
    import dataclasses
    # exact diffusion on the plain ring (indefinite W) must fail fast
    cfg = dataclasses.replace(SMALL, methods=("gtrr", "edrr"),
                              outdir=str(tmp_path))
    with pytest.raises(ConfigError, match="lazify"):
        run_sweep(cfg)
    assert not list(tmp_path.glob("*.csv"))


def test_centralized_rr_from_random_starts_names_its_method_before_any_output(
        tmp_path, capsys, monkeypatch):
    made, make_method = [], algorithms.make_method

    def counted(name, *args, **kw):
        made.append(name)
        return make_method(name, *args, **kw)

    monkeypatch.setattr(algorithms, "make_method", counted)
    outdir = tmp_path / "out"
    code = cli.main(["sweep", "--method", "crr,gtrr", "--init", "random", "--epochs", "2",
                     "--out", str(outdir)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "method 'crr': centralized RR needs a common initial point" in err
    assert made == ["crr"] and not outdir.exists()


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


def count_square_roots(monkeypatch) -> list:
    """A list that gains an entry at every psd_sqrt call, wherever it is
    looked up."""
    from netshuffle import algorithms, topology, unified
    roots = []
    for module in (algorithms, topology, unified):
        monkeypatch.setattr(module, "psd_sqrt",
                            lambda mat, root=topology.psd_sqrt: roots.append(1) or root(mat))
    return roots


def test_sweep_takes_one_square_root_and_reads_no_dense_b(tmp_path, monkeypatch):
    """A gtrr/edrr sweep reads no dense B or B^2 and takes no square root;
    the one (I - W)^(1/2) left on its ED-RR path is the primal-dual
    reference's, which `verify_abc` builds directly."""
    from netshuffle import algorithms, unified
    from netshuffle.shuffling import PermutationStream
    roots = count_square_roots(monkeypatch)

    def unread(self):
        raise AssertionError("a sweep read a dense B or B^2")

    for name in ("B", "B2"):
        monkeypatch.setattr(unified.AbcOperator, name, property(unread))
    cfg = dataclasses.replace(SMALL, tau=0.5, methods=("gtrr", "edrr"),
                              outdir=str(tmp_path))
    run_sweep(cfg)
    assert roots == []
    algorithms.EDRRPrimalDual(harness.build_objective(cfg), harness.build_mix(cfg),
                              PermutationStream(0, "rr"))
    assert len(roots) == 1


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


def test_cli_suite_choices_are_the_suites_and_all():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in subparsers.choices["verify"]._actions if a.dest == "suite")
    assert sorted(suite.choices) == sorted([*harness.SUITES, "all"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_spectrum_names_the_gather_without_building_w(capsys, monkeypatch):
    built = []
    build_mix = harness.build_mix
    monkeypatch.setattr(harness, "build_mix", lambda cfg: built.append(build_mix(cfg)) or built[0])
    assert cli.main(["spectrum", "--graph", "ring", "--n", "512"]) == 0
    assert "mixing = gather (3 per row)" in capsys.readouterr().out.splitlines()
    assert "w" not in vars(built[0])


def test_cli_spectrum_and_constants(capsys):
    assert cli.main(["spectrum", "--graph", "ring", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "lambda = 0.949" in out
    assert cli.main(["constants", "--abc", "gtrr", "--graph", "ring", "--n", "8",
                     "--m", "4", "--epochs", "50"]) == 0
    out = capsys.readouterr().out
    assert "gamma = " in out and "alpha_ncvx = " in out


def test_unconverged_f_star_is_tagged_in_csvs_and_constants(tmp_path, capsys,
                                                            monkeypatch):
    from netshuffle import objective
    estimate = objective.estimate_minimum
    monkeypatch.setattr(objective, "estimate_minimum",
                        lambda *args: estimate(*args, max_iter=50))
    flags = ["--objective", "ncvx-logistic", "--n", "2", "--m", "3", "--dim", "6",
             "--data-seed", "3"]
    assert cli.main(["sweep", *flags, "--epochs", "2", "--method", "drr",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    for name in ("drr_seed0.csv", "drr_mean.csv"):
        text = (tmp_path / name).read_text()
        assert "# f_star_provenance = estimated-unconverged\n" in text
    capsys.readouterr()
    assert cli.main(["constants", *flags]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.endswith("f_star_provenance = estimated-unconverged\n")


def test_cli_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    flags = ["--objective", "quadratic", "--n", "8", "--m", "3", "--dim", "3",
             "--graph", "ring", "--method", "gtrr", "--epochs", "5", "--seed", "0",
             "--stepsize", "const:0.01"]
    code = cli.main(["run", *flags, "--outfile", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("# config_hash = ")
    assert "t,alpha,grad_norm_sq" in text
    # run prints exactly the seed CSV a sweep of the same config writes
    assert cli.main(["sweep", *flags, "--out", str(tmp_path / "sweep")]) == 0
    assert out.read_bytes() == (tmp_path / "sweep" / "gtrr_seed0.csv").read_bytes()


def test_cli_run_and_sweep_reject_edrr_on_an_indefinite_ring(tmp_path, capsys):
    flags = ["--graph", "ring", "--n", "8", "--method", "edrr", "--epochs", "1",
             "--seed", "0"]
    errors = []
    for command in (["run"], ["sweep", "--out", str(tmp_path)]):
        assert cli.main([*command, *flags]) == cli.EXIT_CONFIG
        errors.append(capsys.readouterr().err)
    assert "method 'edrr'" in errors[0] and errors[0] == errors[1]


def test_cli_run_prints_its_csv_and_exits_3_when_it_diverges(tmp_path, capsys):
    flags = ["--n", "8", "--m", "3", "--dim", "3", "--method", "drr", "--epochs", "30",
             "--seed", "0"]
    out = tmp_path / "run.csv"
    assert cli.main(["run", *flags, "--stepsize", "const:0.01", "--outfile", str(out)]) == 0
    assert cli.main(["run", *flags, "--stepsize", "const:0.01"]) == cli.EXIT_OK
    assert capsys.readouterr().out == out.read_text()
    assert cli.main(["run", *flags, "--stepsize", "const:50.0"]) == cli.EXIT_DIVERGED
    text = capsys.readouterr().out
    assert text.startswith("# config_hash = ") and text.endswith(",1\n")


def test_cli_constants_prints_every_computed_constant_and_names_abc(capsys):
    assert cli.main(["constants", "--abc", "edrr", "--n", "8", "--tau", "0.5"]) == 0
    names = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()]
    inputs = ("m", "L", "mu", "T")
    assert names == [f.name for f in dataclasses.fields(TheoryConstants)
                     if f.name not in inputs] + ["k_floor(theta=20.0)", "f_star_provenance"]
    # exact diffusion on the plain ring: W is indefinite
    assert cli.main(["constants", "--abc", "edrr", "--n", "8"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--abc 'edrr'" in captured.err and "lazify" in captured.err and not captured.out


# sha256 of the stdout of README's CLI examples; BLAS threads 1 and 2 agree
README_STDOUT_SHA256 = {
    "spectrum --graph ring --n 16":
        "792d375b68eece87c793130a8c8fa7896cf60b7db8d56b2a83a02d46a3af0b75",
    "constants --abc gtrr --graph ring --n 16 --m 10 --epochs 500":
        "97e89d8044df6253421322da12e506066af1f1e63cd3ab9a6401beeba5be7fe7",
    "verify --suite all":
        "1a6b99b11b3e4b62a26dd314927ca0405cf7079b814d4ebd67c2b322b1b9b790",
}


@pytest.mark.parametrize("command", sorted(README_STDOUT_SHA256))
def test_readme_cli_examples_print_pinned_stdout(command, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"netshuffle {command}\n" in readme
    assert cli.main(command.split()) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == README_STDOUT_SHA256[command]


@pytest.mark.parametrize("flags,key", [(("--method", "gtrr,drr"), "run.methods"),
                                       (("--seed", "0,1"), "run.seeds")])
def test_cli_run_takes_one_method_and_one_seed(capsys, flags, key):
    assert cli.main(["run", "--epochs", "1", *flags]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert key in captured.err and "use sweep" in captured.err and not captured.out


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


def test_cli_verify_non_contractive_custom_operator_is_config_error(capsys):
    # A = C = I and B^2 = I - W: every 2x2 block has determinant 1, so gamma >= 1
    assert cli.main(["verify", "--suite", "spectral", "--n", "8",
                     "--abc", "custom:1/1,-1/1"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "not contractive off consensus" in captured.err and not captured.out
    assert "--abc 'custom:1/1,-1/1'" in captured.err


def test_cli_worst_case_edrr_constants_need_a_positive_definite_w(capsys):
    # the complete graph's Metropolis W is J/n: PSD, with eigenvalue 0
    assert cli.main(["constants", "--abc", "edrr", "--worst-case-constants",
                     "--graph", "complete", "--n", "4"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "need a positive definite W" in captured.err and not captured.out
    assert "--abc 'edrr'" in captured.err and "run.worst_case_constants" in captured.err


@pytest.mark.parametrize("spec", ["bogus", "custom:0,1/1,-1", "custom:0,1/x/0,1", "edrr"])
def test_cli_verify_bad_abc_is_config_error(spec, capsys):
    # edrr on the plain ring is rejected: its W is indefinite
    assert cli.main(["verify", "--suite", "spectral", "--abc", spec]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--abc" in captured.err and not captured.out
