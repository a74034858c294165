"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import SetupClock, Tracer, self_times, traced_targets  # noqa: E402

from netshuffle import algorithms, harness, shuffling  # noqa: E402
from netshuffle.objective import make_logistic  # noqa: E402
from netshuffle.topology import build_graph, lazify, metropolis_weights  # noqa: E402

ALL_METHODS = tuple(algorithms.METHODS)


def tiny_config(outdir, methods=ALL_METHODS):
    return harness.ExperimentConfig(
        objective="logistic", n=4, m=3, dim=2, graph="ring", tau=0.5,
        methods=methods, seeds=(0, 1), epochs=3, stepsize="const:0.01",
        outdir=str(outdir))


def patched_objects():
    owners = [(owner, attr) for owner, attr, _ in traced_targets()]
    owners.append((shuffling.PermutationStream, "permutation"))
    return {(owner, attr): vars(owner)[attr] for owner, attr in owners}


def test_self_times_on_synthetic_tree():
    # root [0,100] has children a [10,40] and b [30,60] (overlapping, so
    # their union 10..60 counts once) and c [90,120] (clipped to 90..100);
    # a has child d [15,25]
    spans = [
        ("root", 0, 100, -1, "r"),
        ("a", 10, 40, 0, "r"),
        ("d", 15, 25, 1, "r"),
        ("b", 30, 60, 0, "r"),
        ("c", 90, 120, 0, "r"),
        ("a", 200, 210, -1, "s"),
    ]
    assert self_times(spans) == {"root": 100 - 50 - 10, "a": 20 + 10, "d": 10,
                                 "b": 30, "c": 30}


def test_traced_run_restores_every_wrapped_function(tmp_path):
    before = patched_objects()
    class_dicts = {owner: set(vars(owner)) for owner, _ in before}
    tracer = Tracer()
    tracer.install()
    try:
        during = patched_objects()
        harness.run_sweep(tiny_config(tmp_path, ("gtrr",)))
    finally:
        tracer.uninstall()
    assert all(during[key] is not obj for key, obj in before.items())
    after = patched_objects()
    assert all(after[key] is obj for key, obj in before.items())
    assert {owner: set(vars(owner)) for owner in class_dicts} == class_dicts
    assert tracer.spans and all(span is not None for span in tracer.spans)


def test_untraced_run_installs_only_the_setup_timestamp(tmp_path):
    before = patched_objects()
    clock = SetupClock()
    clock.install()
    try:
        changed = {key for key, obj in patched_objects().items() if obj is not before[key]}
        assert changed == {(algorithms, "run")}
        harness.run_sweep(tiny_config(tmp_path, ("drr",)))
    finally:
        clock.uninstall()
    assert clock.first_run is not None
    assert all(patched_objects()[key] is obj for key, obj in before.items())


def test_count_formulas_match_traced_counts_for_every_method(tmp_path):
    cfg = tiny_config(tmp_path)
    counts = []
    for attempt in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            harness.run_sweep(dataclasses.replace(cfg, outdir=str(tmp_path / str(attempt))))
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    expected = workloads.expected_counts(cfg)
    for key in ("algorithms.mix_products", "algorithms.mix_flops"):
        expected.pop(key)
    assert {key: counts[0].get(key, 0) for key in expected} == expected
    per_run_evals = cfg.n * cfg.m * cfg.epochs
    assert expected["objective.grad_evals"] == len(cfg.seeds) * (
        len(ALL_METHODS) * per_run_evals + cfg.n)


class CountingMatrix(np.ndarray):
    """A mixing matrix that counts the products it takes part in."""

    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(self) @ np.asarray(other)


@pytest.mark.parametrize("name", ALL_METHODS)
def test_mix_product_formula_matches_update_rules(name):
    obj = make_logistic(4, 3, 2, 0)
    mix = lazify(metropolis_weights(build_graph("ring", n=4)), 0.5)
    machine = algorithms.make_method(name, obj, mix, seed=0)
    machine.reset(algorithms.initial_iterates(obj))
    machine.W = mix.w.view(CountingMatrix)
    if hasattr(machine, "_b_half"):
        machine._b_half = machine._b_half.view(CountingMatrix)
    CountingMatrix.products = 0
    for t in range(4):
        machine.epoch(t, 0.01)
    assert CountingMatrix.products == workloads.mix_products_per_run(name, obj.m, 4)


def test_output_checks_flag_bad_csvs(tmp_path):
    cfg = tiny_config(tmp_path, ("gtrr", "dsgt"))
    harness.run_sweep(cfg)
    reference = workloads.final_values(tmp_path, cfg)
    assert workloads.check_outputs(tmp_path, cfg, reference) == {}
    reference["gtrr"]["fgap_bar"] *= 1.001
    assert set(workloads.check_outputs(tmp_path, cfg, reference)) == {"gtrr/0", "gtrr/1"}
    path = tmp_path / "dsgt_seed1.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert set(workloads.check_outputs(tmp_path, cfg, None)) == {"dsgt/1"}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
         "ring16-seeds", "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
