"""Benchmark of `harness.run_sweep`, the call behind `netshuffle sweep`.

    python3 perfbench/run.py --workload ring16-seeds --seed 0 --seconds 58 --trace 0
    python3 perfbench/run.py --workload all

Every sweep runs in a fresh child process with BLAS threads pinned to 1.
With `--trace 0` the children run untraced and the end-to-end metrics are
reported; with `--trace 1` traced and untraced children alternate, and the
per-layer metrics are reported.  Sweeps repeat until `--seconds` have
passed; an end-to-end metric is the mean over them, printed beside the
median and the tail.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / "bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from child import THREAD_VARS  # noqa: E402

END_TO_END = (("sweep_s", "s"), ("setup_s", "s"),
              ("grad_evals_per_s", "1/s"), ("peak_rss_mb", "MB"))
SELF_TIMED = (
    "shuffling.epoch_orders", "objective.perm_grads", "objective.values_at",
    "objective.grads_at_consensus", "metrics.record", "algorithms.epoch",
    "algorithms.abc_state", "unified.e_vector", "unified.transform_data",
    "unified.build_operator", "topology.metropolis_weights",
    "topology.spectral_info", "topology.psd_sqrt", "algorithms.make_method",
    "algorithms.run", "harness.build_objective", "harness.build_mix",
    "stepsize.alpha", "metrics.aggregate", "metrics.write_csv",
    "harness.run_sweep",
)
COUNTED = (
    "shuffling.epoch_orders.calls", "shuffling.perms_drawn",
    "objective.perm_grads.calls", "objective.grad_evals",
    "objective.estimate_minimum.calls", "metrics.record.calls",
    "algorithms.epoch.calls", "algorithms.inner_steps",
    "stepsize.alpha.calls", "metrics.csv_rows", "metrics.csv_bytes",
)
# computed from the update rules (workloads.mix_products_per_run), not traced
COMPUTED = (("algorithms.mix_products", "count"), ("algorithms.mix_flops", "flop"))
PER_LAYER = (tuple((f"{name}.self_s", "s") for name in SELF_TIMED)
             + tuple((name, "count") for name in COUNTED) + COMPUTED
             + (("trace.coverage", "ratio"), ("trace.overhead_s", "s")))

MIN_SAMPLES = {"plain": 3, "traced": 2}
HARD_LIMIT_S = 140.0     # never start a sweep that would end past this
CHILD_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.exists() else ref
    return ref


def spawn(workload: str, seed: int, mode: str, spans: Path | None = None) -> dict:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode,
           "--outdir", str(WORK / f"csv-{os.getpid()}")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} sweep of {workload} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child for {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, modes: tuple) -> dict:
    """Alternate `modes` in fresh children until `seconds` have passed."""
    WORK.mkdir(exist_ok=True)
    facts = spawn(workload, seed, "warmup")["facts"]
    samples = {mode: [] for mode in modes}
    spans = WORK / f"spans-{workload}-seed{seed}.jsonl"
    start = time.monotonic()
    longest = 0.0
    for mode in itertools.cycle(modes):
        elapsed = time.monotonic() - start
        enough = all(len(samples[m]) >= MIN_SAMPLES[m] for m in modes)
        if enough and elapsed >= seconds:
            break
        if elapsed + longest > HARD_LIMIT_S:
            if enough:
                break
            raise BenchError(f"{workload}: too slow for {MIN_SAMPLES} sweeps")
        first_traced = mode == "traced" and not samples["traced"]
        began = time.monotonic()
        samples[mode].append(spawn(workload, seed, mode, spans if first_traced else None))
        longest = max(longest, time.monotonic() - began)
    facts.update(nproc=len(os.sched_getaffinity(0)), commit=git_commit())
    return {"facts": facts, "samples": samples}


def summary(values: list) -> dict:
    """Mean, median, the highest percentile with ten samples beyond it, and n.

    The mean is the value a run reports.  On a shared host whose speed
    switches between a fast and a slow state for tens of seconds at a time,
    the median of a run jumps between the two states, while the mean moves
    in proportion to the time spent in each (see README.md).
    """
    xs = sorted(values)
    out = {"mean": statistics.fmean(xs), "median": statistics.median(xs), "n": len(xs)}
    if len(xs) > 10:
        out["tail_pct"] = 100.0 * (len(xs) - 10) / len(xs)
        out["tail"] = xs[len(xs) - 11]
    return out


def failures_of(samples: list) -> tuple:
    attempted = sum(s["runs"] for s in samples)
    reasons = {}
    for s in samples:
        reasons.update(s["failures"])
    return attempted, sum(len(s["failures"]) for s in samples), reasons


def completed(samples: list) -> list:
    """Sweeps that returned; those with failed output checks still count."""
    done = [s for s in samples if "csv_sha256" in s]
    if not done:
        raise BenchError("every sweep raised; nothing to time")
    return done


def end_to_end(samples: list) -> dict:
    ok = completed(samples)
    series = {
        "sweep_s": [s["sweep_s"] for s in ok],
        "setup_s": [s["setup_s"] for s in ok],
        "grad_evals_per_s": [s["grad_evals"] / (s["sweep_s"] - s["setup_s"]) for s in ok],
        "peak_rss_mb": [s["peak_rss_mb"] for s in ok],
    }
    return {name: summary(series[name]) for name, _ in END_TO_END}


def per_layer(samples: dict) -> tuple:
    """(metrics, problems) from traced and untraced samples."""
    traced, plain = completed(samples["traced"]), completed(samples["plain"])
    problems = []
    counts = traced[0]["counts"]
    if any(s["counts"] != counts for s in traced[1:]):
        problems.append("work counts differ between traced sweeps")
    expected = traced[0]["expected_counts"]
    for key, want in expected.items():
        if key not in dict(COMPUTED) and counts.get(key, 0) != want:
            problems.append(f"{key}: traced {counts.get(key, 0)} != closed form {want}")
    metrics = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = statistics.median(
            s["self_s"].get(name, 0.0) for s in traced)
    for name in COUNTED:
        metrics[name] = counts.get(name, 0)
    for name, _ in COMPUTED:
        metrics[name] = expected[name]
    metrics["trace.coverage"] = statistics.median(
        s["covered_s"] / s["sweep_s"] for s in traced)
    metrics["trace.overhead_s"] = (statistics.median(s["sweep_s"] for s in traced)
                                   - statistics.median(s["sweep_s"] for s in plain))
    return metrics, problems


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    modes = ("traced", "plain") if trace else ("plain",)
    got = collect(workload, seed, seconds, modes)
    all_samples = [s for mode in modes for s in got["samples"][mode]]
    attempted, failed, reasons = failures_of(all_samples)
    result = {"workload": workload, "seed": seed, "trace": int(trace),
              "facts": got["facts"], "attempted": attempted, "failed": failed,
              "failure_reasons": reasons,
              "csv_sha256": sorted({s["csv_sha256"] for s in all_samples
                                    if "csv_sha256" in s})}
    problems = []
    if trace:
        result["per_layer"], problems = per_layer(got["samples"])
        traced = completed(got["samples"]["traced"])
        result["self_s_all"] = {k: statistics.median(s["self_s"].get(k, 0.0) for s in traced)
                                for k in sorted({k for s in traced for k in s["self_s"]})}
        result["traced_sweep_s"] = summary([s["sweep_s"] for s in traced])
    else:
        result["end_to_end"] = end_to_end(got["samples"]["plain"])
    if len(result["csv_sha256"]) > 1:
        problems.append("CSV bytes differ between sweeps of one seed")
    result["problems"] = problems
    result["correct"] = failed == 0 and not problems
    out = WORK / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps({**result, "samples": got["samples"]}, indent=1))
    return result


def report(result: dict) -> None:
    f = result["facts"]
    print(f"== {result['workload']} seed {result['seed']} trace {result['trace']}")
    print(f"machine: nproc={f['nproc']} python={f['python']} numpy={f['numpy']} "
          f"blas={f['blas']} commit={f['commit']} "
          + " ".join(f"{k}={v}" for k, v in f["threads"].items()))
    share = result["failed"] / result["attempted"]
    print(f"fail_share: {result['failed']}/{result['attempted']} = {share:.4g}")
    for reason in sorted(set(result["failure_reasons"].values()))[:5]:
        print(f"  failure: {reason.strip().splitlines()[-1]}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print("csv sha256: " + ", ".join(result["csv_sha256"]))
    if "end_to_end" in result:
        for name, unit in END_TO_END:
            s = result["end_to_end"][name]
            tail = (f"  p{s['tail_pct']:.0f} {s['tail']:.6g} {unit}" if "tail" in s
                    else "  (too few sweeps for a tail percentile)")
            print(f"{name:>18}: mean {s['mean']:.6g} {unit}  median {s['median']:.6g} {unit}"
                  f"{tail}  n={s['n']}")
        return
    t = result["traced_sweep_s"]
    print(f"traced sweep_s: median {t['median']:.6g} s  n={t['n']}")
    for name, unit in PER_LAYER:
        label = " (computed)" if name in dict(COMPUTED) else ""
        print(f"{name:>42}: {result['per_layer'][name]:.6g} {unit}{label}")
    print("self time of every span (median per traced sweep):")
    for name, value in sorted(result["self_s_all"].items(), key=lambda kv: -kv[1]):
        print(f"{name:>42}: {value:.6g} s")


def last_line(results: list, prefix: bool) -> dict:
    metrics = {}
    for r in results:
        values = r["per_layer"] if r["trace"] else {
            name: r["end_to_end"][name]["mean"] for name, _ in END_TO_END}
        units = dict(PER_LAYER if r["trace"] else END_TO_END)
        for name, value in values.items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": metrics}


def write_reference() -> None:
    workloads.REFERENCE_FILE.unlink(missing_ok=True)
    WORK.mkdir(exist_ok=True)
    reference = {}
    for workload in workloads.WORKLOADS:
        sample = spawn(workload, workloads.DEFAULT_SEED, "plain")
        if sample["failures"]:
            raise BenchError(f"{workload} failed: {sample['failures']}")
        reference[workload] = sample["final"]
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=58.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the default seed's final values in reference.json")
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "netshuffle" / "harness.py").exists():
            raise BenchError(f"no netshuffle sources under {ROOT / 'src'}")
        if args.write_reference:
            write_reference()
            return 0
        if not workloads.REFERENCE_FILE.exists():
            raise BenchError(f"missing {workloads.REFERENCE_FILE}")
        if args.workload == "all":
            results = [bench(w, args.seed, args.seconds, trace)
                       for w in workloads.WORKLOADS for trace in (False, True)]
        else:
            results = [bench(args.workload, args.seed, args.seconds, bool(args.trace))]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        report(result)
    print(json.dumps(last_line(results, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
