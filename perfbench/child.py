"""One sweep of one workload in a fresh process; prints a JSON line.

    python3 perfbench/child.py --workload ring16-seeds --seed 0 \
        --mode plain --outdir bench_out/tmp

`--mode plain` installs only the set-up timestamp; `--mode traced` records
spans and counts; `--mode warmup` imports the program and exits, so the
first measured sweep does not pay for a cold file cache.  The CSV directory
is removed before the process exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from spans import ROOT_SPAN, SetupClock, Tracer, self_times  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def sweep(workload: str, seed: int, mode: str, outdir: Path,
          spans_path: str | None) -> dict:
    from netshuffle import harness

    cfg = workloads.make_config(workload, seed, str(outdir))
    probe = Tracer() if mode == "traced" else SetupClock()
    error = None
    probe.install()
    start = time.perf_counter()
    try:
        harness.run_sweep(cfg)
    except Exception:  # a failed sweep is a result to report, not a crash
        error = traceback.format_exc()
    finally:
        end = time.perf_counter()
        probe.uninstall()
    runs = [f"{m}/{s}" for m in cfg.methods for s in cfg.seeds]
    out = {"sweep_s": end - start, "runs": len(runs),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if error is not None:
        out["failures"] = dict.fromkeys(runs, error)
        return out
    reference = None
    if seed == workloads.DEFAULT_SEED:
        reference = workloads.load_reference().get(workload)
    out["failures"] = workloads.check_outputs(outdir, cfg, reference)
    out["csv_sha256"] = workloads.csv_digest(outdir)
    if not out["failures"]:  # a failed run may lack the rows to read
        out["final"] = workloads.final_values(outdir, cfg)
    expected = workloads.expected_counts(cfg)
    out["grad_evals"] = expected["objective.grad_evals"]
    if mode == "plain":
        out["setup_s"] = probe.first_run - start
        return out
    selfs = self_times(probe.spans)
    out["self_s"] = {name: ns / 1e9 for name, ns in sorted(selfs.items())}
    out["covered_s"] = sum(ns for name, ns in selfs.items() if name != ROOT_SPAN) / 1e9
    out["counts"] = dict(sorted(probe.counts.items()))
    out["expected_counts"] = expected
    if spans_path:
        probe.write(spans_path)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--mode", choices=("plain", "traced", "warmup"), default="plain")
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = ap.parse_args(argv)
    outdir = Path(args.outdir)
    if args.mode == "warmup":
        import netshuffle  # noqa: F401

        print(json.dumps({"facts": facts()}))
        return 0
    try:
        result = sweep(args.workload, args.seed, args.mode, outdir, args.spans)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
