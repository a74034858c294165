import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

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
                                  "plateau:0.1,-0.1"])
def test_bad_stepsize_is_config_error(tmp_path, capsys, spec):
    code, err = _sweep_exit(tmp_path, capsys, "--stepsize", spec)
    assert code == cli.EXIT_CONFIG and "run.stepsize" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flags,key", [(("--method", "gtrr,gtrr"), "run.methods"),
                                       (("--seed", "0,1,0"), "run.seeds")])
def test_repeated_method_or_seed_is_config_error(tmp_path, capsys, flags, key):
    code, err = _sweep_exit(tmp_path, capsys, *flags)
    assert code == cli.EXIT_CONFIG and key in err and "repeated" in err
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
    cfg = config_from_mapping({"topology.tau": "0", "objective.rho": "0",
                               "objective.eta": "0", "objective.condition": "1"})
    assert (cfg.tau, cfg.rho, cfg.eta, cfg.condition) == (0.0, 0.0, 0.0, 1.0)
    assert config_from_mapping({"topology.tau": "0.999"}).tau == 0.999


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


_SEVEN = ("crr", "drr", "dsgd", "dsgt", "gtrr", "ed", "edrr")
_SMALL_RUN = dict(n=8, m=4, dim=3, epochs=6, stepsize="const:0.05")
# sha256 over every CSV one sweep writes (sorted by name, each as its name,
# a NUL byte and its bytes), one sweep per method family and sampling path;
# every e_norm_sq and q_t cell of "transform methods" goes through the
# spectral transform.  Ring graphs take no eigh, so these bytes do not depend
# on the BLAS thread count.
SWEEP_SHA256 = {
    "transform methods": (
        dict(n=16, m=10, dim=5, tau=0.5, methods=("gtrr", "edrr"), epochs=5,
             seeds=(0, 1), stepsize="const:0.001"),
        "a24ac2f7dd912766f6eeb4ac93e598044ff6dfc6e84f8d5c341bd7b38c552e0e"),
    "rr": (dict(objective="logistic", methods=("crr", "drr", "gtrr"), seeds=(0, 1)),
           "2ff524b55ece8bd2f5f2bf446ab2f1883869ee721ac492fb8c00749a88a2883c"),
    "lazy ring": (dict(objective="logistic", tau=0.5, methods=("edrr",), seeds=(0, 1)),
                  "e7dabfa8e293af1287ee390500657355516e0d9938885a2849c836f9023c88c8"),
    "iid": (dict(sampling="iid", methods=("dsgd", "dsgt", "ed"), seeds=(0, 1)),
            "2dbbeab6cc2820a3358c3b2de4907b04473d50c549ed58d03ca45610f7dfa009"),
    "inner metrics": (dict(m=3, tau=0.5, methods=_SEVEN, epochs=3, inner_metrics=True),
                      "89c7a8894da1939771e607df8481d732db69ce49966e621904a2f428ba0682b2"),
    "strict_alg2": (dict(tau=0.5, methods=("edrr",), strict_alg2=True),
                    "c8bcd9eed0d5c9b78ebf91c58004c8b1757defe6080b291d5665ed456f82d5ea"),
    "once": (dict(tau=0.5, sampling="once", methods=("crr", "drr", "gtrr", "edrr")),
             "c49051ea31132de8c2d20bd5fae57fb7af0ac87a0b0c5b5935ebb6a36ab1e8d5"),
}


@pytest.mark.parametrize("case", sorted(SWEEP_SHA256))
def test_sweep_bytes_are_pinned(tmp_path, case):
    overrides, digest = SWEEP_SHA256[case]
    run_sweep(ExperimentConfig(outdir=str(tmp_path), **{**_SMALL_RUN, **overrides}))
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == digest


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


def test_ring1024_sweep_memory_tracks_the_objective(tmp_path, monkeypatch):
    """Set-up and a 1-epoch gtrr/edrr sweep of a lazy 1024-ring hold little
    beyond the objective's own arrays: no dense W, no dense operator and no
    second copy of the component stack."""
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
        for method in cfg.methods:
            harness.run_one(cfg, method, 0, objective, mix, plans[method])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = objective.A.nbytes + objective.b.nbytes + objective.H_agent.nbytes
    # measured 1.27x; the dense W and operators and a one-shot QR gave 3.42x
    assert peak < 1.5 * own
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


def test_x_only_edrr_sweep_takes_no_square_root(tmp_path, monkeypatch):
    roots = count_square_roots(monkeypatch)
    cfg = dataclasses.replace(SMALL, tau=0.5, methods=("edrr",), outdir=str(tmp_path))
    run_sweep(cfg)
    assert roots == []


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
