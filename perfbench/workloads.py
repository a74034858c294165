"""The benchmark's workloads, their closed-form work counts and output checks.

Each workload is a `harness.ExperimentConfig` built from a seed: the seed
offsets `data_seed` and every run seed, so a claim can be rechecked on a seed
that was not used while the claim was made.  Seed 0 is the default; only on it
are the final values compared with `reference.json`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
DEFAULT_SEED = 0
REFERENCE_RTOL = 1e-8
# final-row columns compared with the reference on the default seed
REFERENCE_COLUMNS = ("fgap_bar", "consensus_sq")
# the CSV contract, kept apart from metrics.CSV_COLUMNS so that a change to
# the program's columns fails the check instead of redefining it
CSV_COLUMNS = ("t", "alpha", "grad_norm_sq", "min_grad_norm_sq", "consensus_sq",
               "fgap_mean", "fgap_bar", "q_t", "e_norm_sq", "wall_ns", "diverged")

# Why each workload exists is recorded in README.md beside this file.
# `long-horizon` uses the convex logistic family: the nonconvex family's f*
# estimate took 3 to 51 ms across data seeds, which made `setup_s` depend on
# the seed more than on the program.
WORKLOADS = {
    "ring16-seeds": dict(
        objective="logistic", n=16, m=64, dim=10, hetero=True, graph="ring",
        tau=0.5, methods=("gtrr", "edrr", "dsgt", "ed"), epochs=25,
        stepsize="const:0.01", run_seeds=tuple(range(8))),
    "ring512-quadratic": dict(
        objective="quadratic", n=512, m=8, dim=16, hetero=True, graph="ring",
        tau=0.5, methods=("gtrr", "edrr"), epochs=40, stepsize="const:0.01",
        run_seeds=(0,)),
    "long-horizon": dict(
        objective="logistic", n=8, m=16, dim=10, hetero=True, graph="ring",
        methods=("drr", "gtrr"), epochs=1500,
        stepsize="plateau:0.05,0.02,0.01,0.005", run_seeds=(0,)),
}

# methods whose runs carry a spectral transform, so every snapshot also calls
# abc_state, grads_at_consensus and e_vector
TRANSFORM_METHODS = ("gtrr", "edrr", "edrr-pd")


def make_config(workload: str, seed: int, outdir: str):
    """The workload's config for `seed`, writing its CSVs under `outdir`."""
    from netshuffle.harness import ExperimentConfig

    spec = dict(WORKLOADS[workload])
    run_seeds = spec.pop("run_seeds")
    return ExperimentConfig(data_seed=seed,
                            seeds=tuple(1000 * seed + s for s in run_seeds),
                            outdir=outdir, **spec)


def mix_products_per_run(method: str, m: int, T: int) -> int:
    """n-by-n times n-by-p products an update rule makes over T epochs.

    Computed from the update rules in `algorithms`, not traced: GT-RR mixes
    x every step and the tracker on all but the last step of an epoch; DSGT
    mixes both every step; ED-RR mixes x and updates its shadow dual; the
    primal-dual form adds the dual correction; centralized RR never mixes.
    """
    per_step = {"crr": 0, "drr": 1, "dsgd": 1, "ed": 1, "dsgt": 2, "edrr": 2,
                "edrr-pd": 3}
    if method == "gtrr":
        return (2 * m - 1) * T
    return per_step[method] * m * T


def expected_counts(cfg) -> dict:
    """Closed-form work counts of one `run_sweep(cfg)` without divergence."""
    n, m, p, T = cfg.n, cfg.m, cfg.dim, cfg.epochs
    S = len(cfg.seeds)
    out = dict.fromkeys((
        "objective.grad_evals", "objective.perm_grads.calls",
        "shuffling.perms_drawn", "shuffling.epoch_orders.calls",
        "algorithms.epoch.calls", "algorithms.inner_steps",
        "algorithms.abc_state.calls", "unified.e_vector.calls",
        "objective.grads_at_consensus.calls", "metrics.record.calls",
        "stepsize.alpha.calls", "algorithms.mix_products"), 0)
    for method in cfg.methods:
        dsgt = method == "dsgt"  # its tracker starts from one extra gradient
        out["objective.grad_evals"] += S * (n * m * T + (n if dsgt else 0))
        out["objective.perm_grads.calls"] += S * (m * T + dsgt)
        if method == "crr":  # one shared permutation per epoch
            out["shuffling.perms_drawn"] += S * T
        else:  # dsgt also draws the next epoch's orders on its last step
            out["shuffling.epoch_orders.calls"] += S * (T + dsgt)
            out["shuffling.perms_drawn"] += S * n * (T + dsgt)
        out["algorithms.epoch.calls"] += S * T
        out["algorithms.inner_steps"] += S * m * T
        out["metrics.record.calls"] += S * (T + 1)
        out["stepsize.alpha.calls"] += S * (T + 1)
        if method in TRANSFORM_METHODS:
            for key in ("algorithms.abc_state.calls", "unified.e_vector.calls",
                        "objective.grads_at_consensus.calls"):
                out[key] += S * (T + 1)
        out["algorithms.mix_products"] += S * mix_products_per_run(method, m, T)
    out["algorithms.make_method.calls"] = len(cfg.methods) * (S + 1)
    out["metrics.csv_rows"] = len(cfg.methods) * (S + 1) * (T + 1)
    out["objective.estimate_minimum.calls"] = int(cfg.objective != "quadratic")
    out["algorithms.mix_flops"] = out["algorithms.mix_products"] * 2 * n * n * p
    return out


def load_reference() -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def final_values(outdir: Path, cfg) -> dict:
    """{method: {column: value}} from the last row of each mean CSV."""
    out = {}
    for method in cfg.methods:
        rows = _read_rows(outdir / f"{method}_mean.csv")
        out[method] = {col: float(rows[-1][col]) for col in REFERENCE_COLUMNS}
    return out


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_outputs(outdir: Path, cfg, reference: dict | None) -> dict:
    """Per-run failure reasons for a finished sweep, keyed "method/seed".

    A run fails when its last row is flagged diverged, when its own CSV or
    its method's mean CSV lacks the T+1 rows or the contract columns, or when
    the mean CSV's final values disagree with `reference` (if given).
    """
    failures = {}
    for method in cfg.methods:
        mean_problem = _csv_problem(outdir / f"{method}_mean.csv", cfg.epochs)
        if mean_problem is None and reference is not None:
            got = final_values(outdir, cfg)[method]
            for col, want in reference[method].items():
                if not math.isclose(got[col], want, rel_tol=REFERENCE_RTOL):
                    mean_problem = f"final {col} {got[col]!r} != reference {want!r}"
        for seed in cfg.seeds:
            problem = _csv_problem(outdir / f"{method}_seed{seed}.csv", cfg.epochs)
            if problem or mean_problem:
                failures[f"{method}/{seed}"] = problem or f"mean CSV: {mean_problem}"
    return failures


def _csv_problem(path: Path, epochs: int) -> str | None:
    if not path.exists():
        return f"{path.name} missing"
    with open(path, newline="") as fh:
        header = next(line for line in fh if not line.startswith("#"))
    if tuple(header.strip().split(",")) != CSV_COLUMNS:
        return f"{path.name} lacks the contract columns"
    rows = _read_rows(path)
    if rows and rows[-1]["diverged"] == "1":
        return f"{path.name} diverged at t={rows[-1]['t']}"
    if len(rows) != epochs + 1:
        return f"{path.name} has {len(rows)} rows, expected {epochs + 1}"
    return None


def csv_digest(outdir: Path) -> str:
    """sha256 over every CSV of a sweep, in file-name order."""
    digest = hashlib.sha256()
    for path in sorted(outdir.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()
