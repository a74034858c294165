"""Derandomized fuzz of the config boundary: `netshuffle sweep` flag sets and
`ExperimentConfig` fields drawn from valid and invalid values.

Bad input must fail with exit 2 naming its key or flag and write no CSV,
never end in a traceback; a good one writes readable CSVs."""

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netshuffle import algorithms, cli, harness, metrics, objective
from netshuffle.harness import ConfigError, ExperimentConfig

# (valid values, invalid values) of each flag; a flag left out keeps the
# small base run's value
FLAG_VALUES = {
    "--objective": (["quadratic", "logistic", "ncvx-logistic"], ["cubic"]),
    "--n": (["1", "2", "4"], ["0", "-2", "2.5", "four"]),
    "--m": (["1", "3"], ["0"]),
    "--dim": (["1", "3"], ["0"]),
    "--graph": (["ring", "complete", "star", "grid:2x2", "grid:1x4"],
                ["ring:3", "grid:2x", "torus"]),
    "--tau": (["0.5", "0.99"], ["1", "-0.5", "nan"]),
    "--sampling": (["rr", "once"], ["iid"]),
    "--epochs": (["0", "3"], ["-1", "1e3"]),
    "--seed": (["0", "0,1", "7"], ["0,0", "", "x"]),
    "--init": (["same", "random"], ["zeros"]),
    "--init-scale": (["0", "1e300"], ["inf"]),
    "--stepsize": (["const:0.01", "const:50", "dec:0.5,1", "harmonic:0.1,2",
                    "plateau:0.1,0.01", "auto"], ["const:-1", "dec:1", "sqrt:1"]),
    "--regime": (["pl-const", "pl-decreasing"], ["fast"]),
    "--rho": (["0"], ["-1"]),
    "--eta": (["0"], ["nan"]),
    "--condition": (["10"], ["0.5"]),
    "--scale": (["1e200"], ["0"]),
    "--data-seed": (["1"], ["-1"]),
    "--theta": (["0"], ["nan"]),
}
SWITCHES = ["--inner-metrics", "--strict-alg2", "--no-hetero", "--worst-case-constants",
            "--timings"]
BAD_METHODS = ["edrr-pd", "gtrr,sgd", "", "drr,drr"]
BASE = {"--n": "4", "--m": "2", "--dim": "2", "--epochs": "2"}
KEYS = [f"{f.metadata['section']}.{f.metadata['key'] or f.name}"
        for f in dataclasses.fields(ExperimentConfig)]


def _names_its_input(err: str) -> bool:
    """An error names a config key, a flag, or (for a fault of a method on
    its inputs) the method."""
    return any(key in err for key in KEYS) or "--" in err or "method '" in err


flag_sets = st.tuples(
    st.dictionaries(st.sampled_from(sorted(FLAG_VALUES)), st.integers(0, 9), max_size=5),
    # at most one fault: a flag with an invalid value, or a list flag given twice
    st.none() | st.sampled_from([*sorted(FLAG_VALUES), "--method", "twice"]),
    st.lists(st.sampled_from(sorted(algorithms.METHODS)), min_size=1, max_size=3,
             unique=True),
    st.lists(st.sampled_from(SWITCHES), max_size=2, unique=True))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(flag_sets)
def test_sweep_flags_exit_0_2_or_3_and_never_a_traceback(flags):
    picks, bad, methods, switches = flags
    values = {**BASE, "--method": ",".join(methods)}
    for flag, pick in picks.items():
        valid = FLAG_VALUES[flag][0]
        values[flag] = valid[pick % len(valid)]
    if bad in FLAG_VALUES:
        invalid = FLAG_VALUES[bad][1]
        values[bad] = invalid[len(picks) % len(invalid)]
    elif bad == "--method":
        values[bad] = BAD_METHODS[len(picks) % len(BAD_METHODS)]
    argv = ["sweep", *(item for pair in values.items() for item in pair), *switches]
    if bad == "twice":
        argv += ["--seed", "1"] if len(picks) % 2 else ["--method", "gtrr"]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        # a nonconvex f* can take 50,000 descent steps (about 2 s); the
        # boundary, not the estimate, is under test here
        estimate = objective.estimate_minimum
        mp.setattr(objective, "estimate_minimum",
                   lambda *args: estimate(*args, max_iter=200))
        out = Path(tmp) / "out"
        argv += ["--out", str(out)]
        err_file = Path(tmp) / "err"
        with open(err_file, "w") as err_fh:
            mp.setattr("sys.stderr", err_fh)
            code = cli.main(argv)
        err = err_file.read_text()
        csvs = sorted(out.glob("*.csv")) if out.exists() else []
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DIVERGED), (argv, err)
        assert "Traceback" not in err, argv
        if code == cli.EXIT_CONFIG:
            assert _names_its_input(err) and not csvs, (argv, err)
            return
        epochs, m = int(values["--epochs"]), int(values["--m"])
        rows = epochs + 1 + (epochs * (m - 1) if "--inner-metrics" in switches else 0)
        runs = [metrics.read_csv(path) for path in csvs if "_seed" in path.name]
        assert runs and len(csvs) == len(runs) + len({p.name.split("_")[0] for p in csvs})
        for traj in runs:
            assert traj[-1].diverged or len(traj) == rows, argv
        if code == cli.EXIT_DIVERGED:
            assert all(traj[-1].diverged for traj in runs), argv


FIELD_NAMES = [f.name for f in dataclasses.fields(ExperimentConfig)]
FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20),
    st.sampled_from([0.0, 0.5, 1.0, 2.5, -1.0, float("nan"), float("inf"), 1e300]),
    st.sampled_from(["", "ring", "gtrr", "quadratic", "logistic", "rr", "once", "same",
                     "const:0.1", "auto", "ncvx", "x"]),
    st.lists(st.sampled_from([0, 1, "gtrr", "drr", "x", 1.5]), max_size=3).map(tuple))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(FIELD_NAMES), FIELD_VALUES, max_size=4))
def test_config_fields_are_valid_or_a_config_error_naming_the_key(fields):
    try:
        cfg = ExperimentConfig(**fields)
    except ConfigError as exc:
        assert any(str(exc).startswith(key) for key in KEYS), (fields, exc)
        return
    # a valid config serializes, and its fields pass the check again
    assert harness.canonical_text(cfg)
    assert dataclasses.replace(cfg) == cfg
