"""Set-up time, sweep time and peak memory of a large-n ring sweep, per n.

Each measurement is one sweep in a fresh process: a lazy Metropolis ring
(tau = 0.5), gtrr and edrr, the quadratic objective with m = 8 and p = 16,
5 epochs, one run seed, BLAS threads at 1.  `setup_s` is the time from the
sweep's start to the first `algorithms.run` call, `sweep_s` the whole
`harness.run_sweep`, `peak_rss_mb` the process's peak resident set.

    python3 scripts/bench_large_n.py --src . --label change \\
        --src /path/to/parent --label parent --out BENCH_large_n.json

With several `--src`, the trees take turns within each repetition, so host
noise falls on all of them alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

SIZES = (512, 1024, 2048, 4096)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CONFIG = dict(objective="quadratic", m=8, dim=16, hetero=True, graph="ring", tau=0.5,
              methods=("gtrr", "edrr"), epochs=5, stepsize="const:0.01", seeds=(0,))


def child(src: str, n: int) -> dict:
    """One sweep of the ring at `n`, with `src`'s netshuffle."""
    sys.path.insert(0, os.path.join(src, "src"))
    from netshuffle import algorithms, harness

    first_run = []
    run = algorithms.run

    def clocked_run(*args, **kwargs):
        if not first_run:
            first_run.append(time.perf_counter())
        return run(*args, **kwargs)

    algorithms.run = clocked_run
    with tempfile.TemporaryDirectory() as outdir:
        cfg = harness.ExperimentConfig(n=n, outdir=outdir, **CONFIG)
        start = time.perf_counter()
        harness.run_sweep(cfg)
        end = time.perf_counter()
    return {"sweep_s": end - start, "setup_s": first_run[0] - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def measure(src: str, n: int) -> dict:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    out = subprocess.run([sys.executable, __file__, "--child", "--src", src, "--n", str(n)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="a source tree holding src/netshuffle (repeatable)")
    ap.add_argument("--label", action="append", help="a name for each --src")
    ap.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--out", help="write the results here as JSON")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--n", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.src[0], args.n)))
        return 0
    labels = args.label or [f"tree{i}" for i in range(len(args.src))]
    if len(labels) != len(args.src):
        ap.error("give one --label per --src")
    runs = {label: {str(n): [] for n in args.sizes} for label in labels}
    for rep in range(args.repeat):
        for n in args.sizes:
            # the tree that goes first alternates between repetitions
            order = list(zip(labels, args.src))
            for label, src in (order if rep % 2 == 0 else order[::-1]):
                result = measure(os.path.abspath(src), n)
                runs[label][str(n)].append(result)
                print(label, n, json.dumps(result), file=sys.stderr)
    summary = {label: {n: {key: median([r[key] for r in results])
                           for key in ("sweep_s", "setup_s", "peak_rss_mb")}
                       for n, results in per_n.items()}
               for label, per_n in runs.items()}
    import numpy as np

    report = {
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in CONFIG.items()},
        "sizes": list(args.sizes), "repeat": args.repeat,
        "median": summary, "runs": runs,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cores": os.cpu_count(), "threads": dict.fromkeys(THREAD_VARS, "1")},
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
