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

from . import harness, metrics, stepsize, unified
from .topology import NeighborGather

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


class _ListFlag(argparse.Action):
    """A list flag takes one comma list: a second use, which would silently
    replace the first, is refused."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise harness.ConfigError(f"{option_string}: given twice; give one comma "
                                      "list instead")
        setattr(namespace, self.dest, values)


def _add_config_flags(p: argparse.ArgumentParser):
    """One flag per `ExperimentConfig` field, grouped by its file section,
    plus the CLI-only --config and --no-hetero; each passes its value on as text."""
    p.add_argument("--config", help="key = value config file; flags override it")
    groups = {}
    for field in dataclasses.fields(harness.ExperimentConfig):
        meta = field.metadata
        if meta["section"] not in groups:
            groups[meta["section"]] = p.add_argument_group(meta["section"])
        flag = "--" + (meta["flag"] or field.name).replace("_", "-")
        if field.type == "bool":
            kind = {"action": "store_const", "const": "true"}
        else:  # choices are listed here and checked by ExperimentConfig
            kind = {"metavar": meta["choices"] and "{" + ",".join(meta["choices"]) + "}"}
            if field.type == "tuple":
                kind["action"] = _ListFlag
        groups[meta["section"]].add_argument(flag, dest=field.name, help=meta["help"],
                                             **kind)
    groups["objective"].add_argument("--no-hetero", dest="hetero",
                                     action="store_const", const="false")


def _config_from_args(args) -> harness.ExperimentConfig:
    cfg = harness.ExperimentConfig()
    if args.config:
        cfg = harness.config_from_file(args.config, cfg)
    overrides = {field.name: getattr(args, field.name)
                 for field in dataclasses.fields(harness.ExperimentConfig)
                 if getattr(args, field.name) is not None}
    return harness.config_from_mapping(overrides, cfg)


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    if len(cfg.methods) != 1 or len(cfg.seeds) != 1:
        raise harness.ConfigError("run takes exactly one run.methods entry and one "
                                  "run.seeds entry; use sweep")
    method, seed = cfg.methods[0], cfg.seeds[0]
    objective, mix, plans = harness.plan_runs(cfg)
    traj = harness.run_seed(cfg, seed, objective, mix, plans)[method]
    text = metrics.to_csv(traj, harness.csv_metadata(cfg, method, objective, seed))
    if args.outfile:
        with open(args.outfile, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if traj and traj[-1].diverged:
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
    extra = []
    if args.abc:  # before the suites, so a bad --abc fails at once
        op, _ = _abc_operator(args.abc, _config_from_args(args))
        extra = harness.verify_operator(op, f"abc {args.abc}")
    checks = harness.verify(args.suite) + extra
    failed = [c for c in checks if not c.passed]
    for check in checks:
        print(check.line())
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def _abc_operator(spec: str, cfg: harness.ExperimentConfig
                  ) -> tuple[unified.AbcOperator, unified.TransformData]:
    """The operator `--abc` names (a preset or custom polynomial
    coefficients) on `cfg`'s graph, and its transform; an operator the
    transform rejects (one not contractive off consensus) is a fault of
    `--abc` too."""
    if spec not in harness.PRESET_OPERATORS and not spec.startswith("custom:"):
        raise harness.ConfigError(f"--abc: expected gtrr, edrr or custom:<a>/<b2>/<c>, "
                                  f"got {spec!r}")
    mix = harness.build_mix(cfg)
    try:
        if spec in harness.PRESET_OPERATORS:
            op = harness.PRESET_OPERATORS[spec](mix)
        else:
            pa, pb2, pc = ([float(v) for v in part.split(",")]
                           for part in spec.split(":", 1)[1].split("/"))
            op = unified.build_operator(pa, pb2, pc, mix)
        return op, unified.transform_data(op)
    except ValueError as exc:  # includes unified.OperatorError
        raise harness.ConfigError(f"--abc {spec!r}: {exc}") from exc


def _cmd_constants(args) -> int:
    cfg = _config_from_args(args)
    _, tdata = _abc_operator(args.abc, cfg)
    obj = harness.build_objective(cfg)
    worst = args.abc if cfg.worst_case_constants else None
    try:
        tc = stepsize.theory_constants(tdata, cfg.m, obj.constants.L, obj.constants.mu,
                                       max(cfg.epochs, 1), worst_case=worst)
    except ValueError as exc:  # only the worst-case bounds refuse a valid transform
        raise harness.ConfigError(f"--abc {args.abc!r} with "
                                  f"run.worst_case_constants: {exc}") from exc
    for field in dataclasses.fields(tc):
        if field.name not in ("m", "L", "mu", "T"):  # the inputs
            print(f"{field.name} = {getattr(tc, field.name)}")
    if tc.mu is not None:
        print(f"k_floor(theta={cfg.theta}) = {tc.k_floor(cfg.theta)}")
    print(f"f_star_provenance = {obj.constants.tag('f_star')}")
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
    op = mix.operator
    kind = f"gather ({op.per_row} per row)" if isinstance(op, NeighborGather) else "dense"
    print(f"mixing = {kind}")
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
                          choices=[*harness.SUITES, "all"])
    p_verify.add_argument("--abc", help="gtrr|edrr|custom:<a>/<b2>/<c> extra check")
    _add_config_flags(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_const = sub.add_parser("constants", help="print theory constants")
    p_const.add_argument("--abc", choices=list(harness.PRESET_OPERATORS), default="gtrr")
    _add_config_flags(p_const)
    p_const.set_defaults(fn=_cmd_constants)

    p_spec = sub.add_parser("spectrum", help="print mixing-matrix eigendata")
    _add_config_flags(p_spec)
    p_spec.set_defaults(fn=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError) as exc:  # harness.ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
