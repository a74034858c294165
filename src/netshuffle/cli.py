"""Command-line interface.

Subcommands: run (one method, one seed), sweep (methods x seeds with CSV
output), verify (property suites), constants (theory calculator), spectrum
(mixing-matrix eigendata).  Exit codes: 0 success, 1 verification failure,
2 configuration error, 3 every seed diverged.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import algorithms, harness, metrics, stepsize, unified

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


_FLAG_TYPES = {"int": int, "float": float}


def _add_config_flags(p: argparse.ArgumentParser):
    """One flag per `ExperimentConfig` field, grouped by its file section,
    plus the CLI-only --config, --no-hetero and --auto-stepsize."""
    p.add_argument("--config", help="key = value config file; flags override it")
    groups = {}
    for field in dataclasses.fields(harness.ExperimentConfig):
        meta = field.metadata
        if meta["section"] not in groups:
            groups[meta["section"]] = p.add_argument_group(meta["section"])
        flag = "--" + (meta["flag"] or field.name).replace("_", "-")
        if field.type == "bool":  # passed on as text, parsed like a file value
            kind = {"action": "store_const", "const": "true"}
        else:
            kind = {"type": _FLAG_TYPES.get(field.type), "choices": meta["choices"]}
        groups[meta["section"]].add_argument(flag, dest=field.name, help=meta["help"],
                                             **kind)
    groups["objective"].add_argument("--no-hetero", dest="hetero",
                                     action="store_const", const="false")
    groups["run"].add_argument("--auto-stepsize", action="store_true",
                               help="shorthand for --stepsize auto")


def _config_from_args(args) -> harness.ExperimentConfig:
    cfg = harness.ExperimentConfig()
    if args.config:
        cfg = harness.config_from_file(args.config, cfg)
    overrides = {field.name: getattr(args, field.name)
                 for field in dataclasses.fields(harness.ExperimentConfig)
                 if getattr(args, field.name) is not None}
    if args.auto_stepsize:
        overrides["stepsize"] = "auto"
    return harness.config_from_mapping(overrides, cfg)


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    if len(cfg.methods) != 1 or len(cfg.seeds) != 1:
        raise harness.ConfigError("run takes exactly one method and one seed; use sweep")
    method, seed = cfg.methods[0], cfg.seeds[0]
    records = harness.run_one(cfg, method, seed)
    meta = {"config_hash": harness.config_hash(cfg), "method": method, "seed": seed,
            "generated_by": harness.GENERATOR_TAG}
    text = metrics.to_csv(records, meta)
    if args.outfile:
        with open(args.outfile, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if records and records[-1].diverged:
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    results = harness.run_sweep(cfg)
    for path in sorted(results):
        print(f"wrote {path}")
    if harness.all_diverged(results):
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_verify(args) -> int:
    checks = harness.verify(args.suite)
    if args.abc and args.abc.startswith("custom:"):
        checks.extend(_custom_abc_checks(args))
    failed = [c for c in checks if not c.passed]
    for check in checks:
        print(check.line())
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def _custom_abc_checks(args):
    import numpy as np

    from .objective import make_quadratic
    from .shuffling import PermutationStream

    coeff_text = args.abc.split(":", 1)[1]
    try:
        pa, pb2, pc = ([float(v) for v in part.split(",")]
                       for part in coeff_text.split("/"))
    except ValueError as exc:
        raise harness.ConfigError(f"bad custom abc spec {args.abc!r}") from exc
    cfg = _config_from_args(args)
    mix = harness.build_mix(cfg)
    op = unified.build_operator(pa, pb2, pc, mix)
    tdata = unified.transform_data(op)
    obj = make_quadratic(mix.n, 4, 3, seed=1, condition=2.0)
    engine = unified.AbcEngine(op, obj, PermutationStream(1, "rr"))
    xform = unified.TransformedEngine(op, obj, PermutationStream(1, "rr"))
    x0 = algorithms.initial_iterates(obj, "same", 1.0, init_seed=1)
    engine.reset(x0)
    xform.reset(x0)
    worst = 0.0
    for t in range(5):
        engine.epoch(t, 0.01)
        xform.epoch(t, 0.01)
        worst = max(worst, float(np.linalg.norm(engine.X - xform.X)
                                 / max(1.0, np.linalg.norm(engine.X))))
    return [
        harness._check("custom abc: two-variable == transformed", worst, 1e-9),
        harness._check("custom abc: gamma < 1", tdata.gamma, 1.0 - 1e-15),
    ]


def _cmd_constants(args) -> int:
    cfg = _config_from_args(args)
    mix = harness.build_mix(cfg)
    preset = args.abc or "gtrr"
    if preset == "gtrr":
        op = unified.gtrr_operator(mix)
    elif preset == "edrr":
        op = unified.edrr_operator(mix)
    else:
        raise harness.ConfigError("constants supports --abc gtrr|edrr")
    tdata = unified.transform_data(op)
    obj = harness.build_objective(cfg)
    worst = preset if cfg.worst_case_constants else None
    tc = stepsize.theory_constants(tdata, cfg.m, obj.constants.L, obj.constants.mu,
                                   max(cfg.epochs, 1), worst_case=worst)
    for name in ("gamma", "C1", "C2", "C3", "C4", "alpha_max_ncvx", "beta",
                 "alpha_ncvx", "alpha_max_pl", "beta1", "beta2",
                 "norm_V2", "norm_Vinv2", "norm_La2"):
        print(f"{name} = {getattr(tc, name)}")
    if tc.mu is not None:
        print(f"k_floor(theta={cfg.theta}) = {tc.k_floor(cfg.theta)}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    cfg = _config_from_args(args)
    mix = harness.build_mix(cfg)
    s = mix.spectral
    print(f"n = {mix.n}")
    print("eigenvalues = " + ", ".join(f"{v:.12g}" for v in s.eigenvalues))
    print(f"lambda = {s.lam:.12g}")
    print(f"gap = {s.gap:.12g}")
    print(f"lambda_min = {s.lambda_min:.12g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netshuffle",
        description="Decentralized finite-sum optimization simulator with "
                    "random reshuffling methods and verification oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one method for one seed, emit CSV")
    _add_config_flags(p_run)
    p_run.add_argument("--outfile", help="CSV path (default stdout)")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run methods x seeds, write CSVs")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("--suite", default="all",
                          choices=["abc", "shuffle", "spectral", "gradcheck", "all"])
    p_verify.add_argument("--abc", help="gtrr|edrr|custom:<a>/<b2>/<c> extra check")
    _add_config_flags(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_const = sub.add_parser("constants", help="print theory constants")
    p_const.add_argument("--abc", choices=["gtrr", "edrr"], default="gtrr")
    _add_config_flags(p_const)
    p_const.set_defaults(fn=_cmd_constants)

    p_spec = sub.add_parser("spectrum", help="print mixing-matrix eigendata")
    _add_config_flags(p_spec)
    p_spec.set_defaults(fn=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
