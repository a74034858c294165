"""Experiment orchestration: configs, sweeps, and the verification suites.

Configs are flat `key = value` text with dotted sections, mirrored 1:1 by CLI
flags (CLI overrides file).  The canonical serialization is hashed and the
hash embedded in every CSV, so outputs are attributable and reruns are
byte-comparable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algorithms, metrics, stepsize, unified
from .data import load_cifar10, synthetic_classification
from .objective import (central_difference_grad, logistic_from_samples,
                        make_logistic, make_nonconvex_logistic, make_quadratic)
from .shuffling import RESHUFFLE_MODES, PermutationStream, rr_variance
from .stepsize import REGIMES, SCHEDULE_FORMS
from .topology import (GRAPH_SPECS, MixingMatrix, TopologyError, build_graph, lazify,
                       metropolis_weights)

GENERATOR_TAG = "netshuffle 0.1.0"


class ConfigError(ValueError):
    """Bad experiment configuration."""


# the objective families and the family-specific fields each reads; a field
# that another family reads is ignored by this one, so setting it away from
# its default is a config error
FAMILY_FIELDS = {
    "quadratic": ("condition", "hetero_scale", "spread"),
    "logistic": ("rho", "hetero", "scale", "cifar10"),
    "ncvx-logistic": ("eta", "hetero", "scale", "cifar10"),
}


def _key(default, section: str, help: str | None = None, *, key: str | None = None,
         flag: str | None = None, choices=None, minimum: float | None = None,
         below: float | None = None, hashed: bool = True):
    """Declare a config field: its file key is `<section>.<key or field name>`,
    its CLI flag `--<flag or field name>` (underscores as dashes), and only
    hashed fields enter the canonical text.  A value must lie in `choices`,
    be >= `minimum` and be < `below`, where given; every float field must be
    finite, and every list field must hold at least one entry and none twice."""
    return dataclasses.field(default=default, metadata={
        "section": section, "key": key, "flag": flag, "help": help,
        "choices": choices, "minimum": minimum, "below": below, "hashed": hashed})


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked however it is made (see `_key` and `_typed`)."""

    objective: str = _key("quadratic", "objective", key="family",
                          choices=tuple(FAMILY_FIELDS))
    n: int = _key(16, "objective", "agent count", minimum=1)
    m: int = _key(10, "objective", "components per agent", minimum=1)
    dim: int = _key(5, "objective", "iterate dimension", minimum=1)
    rho: float = _key(0.2, "objective", "ridge weight (logistic)", minimum=0)
    eta: float = _key(0.2, "objective", "saturating-penalty weight", minimum=0)
    condition: float = _key(1.0, "objective", minimum=1)
    hetero: bool = _key(True, "objective", "label-sorted heterogeneous partition")
    hetero_scale: float = _key(1.0, "objective")
    spread: float = _key(1.0, "objective")
    scale: float = _key(1.0, "objective")
    data_seed: int = _key(0, "objective")
    cifar10: str = _key("", "objective", "directory with CIFAR-10 binary batches")
    graph: str = _key("ring", "topology", "|".join(GRAPH_SPECS))
    tau: float = _key(0.0, "topology", "lazify weight in [0,1); 0 keeps W",
                      minimum=0, below=1)
    methods: tuple = _key(("gtrr",), "run", "comma list from "
                          + ",".join(sorted(algorithms.METHODS)), flag="method")
    sampling: str = _key("rr", "run", choices=RESHUFFLE_MODES)
    epochs: int = _key(100, "run", minimum=0)
    seeds: tuple = _key((0,), "run", "comma list of seeds", flag="seed")
    init: str = _key("same", "run", choices=algorithms.INIT_MODES)
    init_scale: float = _key(1.0, "run")
    stepsize: str = _key("const:0.001", "run", " | ".join(
        [*(f"{kind}:{args}" for kind, args in SCHEDULE_FORMS.items()), "auto"]))
    regime: str = _key("ncvx", "run", choices=REGIMES)
    theta: float = _key(20.0, "run")
    strict_alg2: bool = _key(False, "run")
    inner_metrics: bool = _key(False, "run")
    worst_case_constants: bool = _key(False, "run")
    # execution details that do not influence the produced numbers stay out
    # of the hash, so reruns in other directories hash (and therefore
    # serialize) identically
    outdir: str = _key("results", "run", "output directory", flag="out", hashed=False)
    timings: bool = _key(False, "run", "fill wall_ns with each run's own time",
                         hashed=False)

    def __post_init__(self):
        for name, field in _FIELDS.items():
            meta, key = field.metadata, _FIELD_TO_KEY[name]
            value = _typed(key, field, getattr(self, name))
            object.__setattr__(self, name, value)
            if field.type == "float" and not np.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value}")
            if field.type == "tuple" and not value:
                raise ConfigError(f"{key}: needs at least one entry")
            if field.type == "tuple" and len(set(value)) < len(value):
                raise ConfigError(f"{key}: repeated entry in {','.join(map(str, value))}")
            if meta["choices"] is not None and value not in meta["choices"]:
                raise ConfigError(f"{key}: expected one of "
                                  f"{', '.join(meta['choices'])}, got {value!r}")
            if meta["minimum"] is not None and not value >= meta["minimum"]:
                raise ConfigError(f"{key}: must be >= {meta['minimum']}, got {value}")
            if meta["below"] is not None and not value < meta["below"]:
                raise ConfigError(f"{key}: must be < {meta['below']}, got {value}")
        for method in self.methods:
            if method not in algorithms.METHODS:
                raise ConfigError(f"{_FIELD_TO_KEY['methods']}: unknown method {method!r}; "
                                  f"choose from {', '.join(sorted(algorithms.METHODS))}")
        reads = FAMILY_FIELDS[self.objective]
        for name in _FAMILY_SPECIFIC:
            if name not in reads and getattr(self, name) != _FIELDS[name].default:
                readers = [family for family, names in FAMILY_FIELDS.items() if name in names]
                raise ConfigError(
                    f"{_FIELD_TO_KEY[name]}: the {self.objective} family ignores it; "
                    f"leave it at {_FIELDS[name].default!r} or set "
                    f"{_FIELD_TO_KEY['objective']} to {' or '.join(readers)}")


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_FAMILY_SPECIFIC = [name for name in _FIELDS
                    if any(name in names for names in FAMILY_FIELDS.values())]
_FIELD_TO_KEY = {name: f"{f.metadata['section']}.{f.metadata['key'] or name}"
                 for name, f in _FIELDS.items()}
_KEYMAP = {key: name for name, key in _FIELD_TO_KEY.items()}
_HASHED_KEYS = sorted(_FIELD_TO_KEY[name] for name, f in _FIELDS.items()
                      if f.metadata["hashed"])
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
# per field type: the values it takes, what stores or parses one, their name
_TYPES = {"int": (numbers.Integral, int, "an integer"),
          "float": (numbers.Real, float, "a real number"),
          "bool": (bool, bool, "true or false"),
          "str": (str, str, "text")}


def _entry_type(field) -> str:
    return type(field.default[0]).__name__  # a list field's entries are its default's


def _typed(key: str, field, value):
    """`value` stored as `field`'s type: an int field takes an integer, a
    float field any real number, stored as a float, neither a bool, and a
    list field a list or tuple of its entry type, stored as a tuple."""
    if field.type != "tuple":
        return _scalar(key, field.type, value)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: expected a list of {_entry_type(field)}, got {value!r}")
    return tuple(_scalar(key, _entry_type(field), entry) for entry in value)


def _scalar(key: str, kind: str, value):
    accepts, store, name = _TYPES[kind]
    if not isinstance(value, accepts) or (kind != "bool" and isinstance(value, bool)):
        raise ConfigError(f"{key}: expected {name}, got {value!r}")
    return store(value)


def _coerce(field, text: str):
    """A config value parsed from its text: a comma list for a list field,
    one of `_BOOLS` for a bool field; `_typed` checks what comes out."""
    if field.type == "tuple":
        parse = _TYPES[_entry_type(field)][1]
        return tuple(parse(part.strip()) for part in text.split(",") if part.strip())
    text = text.strip()
    if field.type != "bool":
        return _TYPES[field.type][1](text)
    if text.lower() not in _BOOLS:
        raise ValueError(f"expected one of {', '.join(_BOOLS)}, got {text!r}")
    return _BOOLS[text.lower()]


def config_from_mapping(entries: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Override `base` with entries keyed by dotted file key or field name;
    a text value is parsed as a file value is, and the result checks itself."""
    updates = {}
    for key, raw in entries.items():
        field_name = _KEYMAP.get(key, key if key in _FIELDS else None)
        if field_name is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            updates[field_name] = (_coerce(_FIELDS[field_name], raw)
                                   if isinstance(raw, str) else raw)
        except ValueError as exc:
            raise ConfigError(f"{_FIELD_TO_KEY[field_name]}: {exc}") from exc
    return dataclasses.replace(base or ExperimentConfig(), **updates)


def config_from_file(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    entries = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return config_from_mapping(entries, base)


def canonical_text(cfg: ExperimentConfig) -> str:
    lines = []
    for key in _HASHED_KEYS:
        value = getattr(cfg, _KEYMAP[key])
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_mix(cfg: ExperimentConfig) -> MixingMatrix:
    try:
        graph = build_graph(cfg.graph, n=cfg.n)
    except TopologyError as exc:
        raise ConfigError(f"{_FIELD_TO_KEY['graph']}: {exc}") from exc
    mix = metropolis_weights(graph)
    return lazify(mix, cfg.tau) if cfg.tau > 0.0 else mix


def build_objective(cfg: ExperimentConfig):
    """The config's objective; an L or mu that is not finite is a ConfigError
    naming the key that made the data (a synthetic pool's `objective.scale`)."""
    if cfg.objective == "quadratic":
        return make_quadratic(cfg.n, cfg.m, cfg.dim, cfg.data_seed,
                              condition=cfg.condition, hetero=cfg.hetero_scale,
                              spread=cfg.spread)
    key = _FIELD_TO_KEY["cifar10" if cfg.cifar10 else "scale"]
    try:
        feats, labels = (load_cifar10(cfg.cifar10) if cfg.cifar10 else
                         synthetic_classification(cfg.n * cfg.m, cfg.dim, cfg.data_seed,
                                                  scale=cfg.scale))
        with np.errstate(over="ignore"):  # an L that overflows is refused below
            objective = logistic_from_samples(
                feats, labels, cfg.n, cfg.m, rho=cfg.rho, heterogeneous=cfg.hetero,
                seed=cfg.data_seed,
                nonconvex_eta=cfg.eta if cfg.objective == "ncvx-logistic" else None)
    except (OSError, ValueError) as exc:
        if not cfg.cifar10:  # a synthetic pool holds the n m samples it needs
            raise
        raise ConfigError(f"{key}: {exc}") from exc
    consts = objective.constants
    for name, value in (("L", consts.L), ("mu", consts.mu)):
        if value is not None and not np.isfinite(value):
            raise ConfigError(f"{key}: the objective's {name} = {value} is not finite; "
                              "the features are too large")
    return objective


# the (A, B^2, C) presets, keyed by the method each reproduces, for method
# transforms, `constants` and `verify --abc`; only the reshuffling members of
# the two-matrix family carry transformed state, so only they get Lyapunov/e
# columns and auto stepsizes
PRESET_OPERATORS = {"gtrr": unified.gtrr_operator, "edrr": unified.edrr_operator}


def method_transform(method: str, mix: MixingMatrix) -> unified.TransformData | None:
    if method not in PRESET_OPERATORS:
        return None
    return unified.transform_data(PRESET_OPERATORS[method](mix))


def build_schedule(cfg: ExperimentConfig, method: str, objective,
                   transform) -> stepsize.Schedule:
    """`cfg.stepsize` as a schedule for `method`; every fault is a
    ConfigError naming `run.stepsize`."""
    consts = objective.constants
    try:
        if cfg.stepsize != "auto":
            return stepsize.parse_schedule(cfg.stepsize, mu=consts.mu, m=cfg.m)
        if transform is None:
            raise ValueError(f"auto is undefined for method {method!r}")
        worst = method if cfg.worst_case_constants else None
        sched = stepsize.recommend_alpha(
            transform, cfg.m, consts.L, consts.mu, max(cfg.epochs, 1),
            regime=cfg.regime, theta=cfg.theta, worst_case=worst)
        if isinstance(sched, stepsize.ConstantSchedule):
            tc = stepsize.theory_constants(transform, cfg.m, consts.L, consts.mu,
                                           max(cfg.epochs, 1), worst_case=worst)
            if sched.value > tc.alpha_max_ncvx * (1 + 1e-12):
                raise ValueError(f"auto stepsize {sched.value:.6g} exceeds the "
                                 f"admissible bound {tc.alpha_max_ncvx:.6g}")
        return sched
    except ValueError as exc:
        raise ConfigError(f"{_FIELD_TO_KEY['stepsize']}: {exc}") from exc


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def plan_runs(cfg: ExperimentConfig) -> tuple:
    """Build `cfg`'s objective and mixing matrix, and validate every method on
    them from the first seed's initial iterates, before any run starts.

    Returns (objective, mix, plans): `plans[method]` is the (transform,
    schedule) that all of the method's seeds share.  An invalid pairing of a
    method with its inputs (say exact diffusion on an indefinite W) raises a
    ConfigError naming the method; every other fault names its config key.
    """
    objective = build_objective(cfg)
    mix = build_mix(cfg)
    x0 = algorithms.initial_iterates(objective, cfg.init, cfg.init_scale,
                                     cfg.data_seed, cfg.seeds[0])
    plans = {}
    for method in cfg.methods:
        try:
            algorithms.make_method(method, objective, mix, seed=0, sampling=cfg.sampling,
                                   strict_alg2=cfg.strict_alg2).reset(x0)
            transform = method_transform(method, mix)
        except ValueError as exc:  # includes unified.OperatorError
            raise ConfigError(f"method {method!r}: {exc}") from exc
        plans[method] = transform, build_schedule(cfg, method, objective, transform)
    # every run's first snapshot reads f*; an estimated f* is computed here,
    # with the rest of the set-up
    objective.constants.f_star
    return objective, mix, plans


def run_seed(cfg: ExperimentConfig, seed: int, objective, mix: MixingMatrix,
             plans: dict) -> dict:
    """Every method of `cfg` for one seed, in lockstep over the seed's
    shared orders, with the (transform, schedule) that `plan_runs` gave for
    each: {method: trajectory}."""
    transforms, schedules = zip(*(plans[method] for method in cfg.methods))
    trajs = algorithms.run(
        cfg.methods, objective, mix, schedules, cfg.epochs, seed,
        sampling=cfg.sampling, init=cfg.init, init_scale=cfg.init_scale,
        init_seed=cfg.data_seed, transform=transforms,
        strict_alg2=cfg.strict_alg2, inner_metrics=cfg.inner_metrics,
        timings=cfg.timings,
    )
    return dict(zip(cfg.methods, trajs))


def csv_metadata(cfg: ExperimentConfig, method: str, objective,
                 seed: int | None = None) -> dict:
    """The `#` lines of a method's CSV: its run with `seed`, or its mean over
    `cfg.seeds` when `seed` is None."""
    meta = {"config_hash": config_hash(cfg), "method": method}
    if seed is None:
        meta.update(seeds=",".join(str(s) for s in cfg.seeds), aggregate="mean")
    else:
        uses_rr = algorithms.METHODS[method].uses_rr
        meta.update(seed=seed, sampling=cfg.sampling if uses_rr else "iid")
    meta.update(f_star_provenance=objective.constants.tag("f_star"),
                generated_by=GENERATOR_TAG)
    return meta


def run_sweep(cfg: ExperimentConfig) -> dict:
    """Run methods x seeds, write one CSV per run plus per-method means.

    Returns {path: trajectory}; raises ConfigError on invalid configs, before
    any run starts or the output directory is made.
    """
    objective, mix, plans = plan_runs(cfg)
    outdir = Path(cfg.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{_FIELD_TO_KEY['outdir']}: cannot create output dir "
                          f"{outdir}: {exc}") from exc
    # one lockstep call per seed, whose methods share the seed's orders
    results = {seed: run_seed(cfg, seed, objective, mix, plans) for seed in cfg.seeds}

    written = {}
    for method in cfg.methods:
        per_seed = []
        for seed in cfg.seeds:
            traj = results[seed][method]
            per_seed.append(traj)
            path = outdir / f"{method}_seed{seed}.csv"
            metrics.write_csv(path, traj, csv_metadata(cfg, method, objective, seed))
            written[path] = traj
        mean = metrics.aggregate(per_seed)
        path = outdir / f"{method}_mean.csv"
        metrics.write_csv(path, mean, csv_metadata(cfg, method, objective))
        written[path] = mean
    return written


def all_diverged(results: dict) -> bool:
    runs = [traj for path, traj in results.items() if "seed" in path.name]
    return bool(runs) and all(traj and traj[-1].diverged for traj in runs)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tol: float
    note: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: measured {self.measured:.3e} vs tol {self.tol:.3e} {self.note}"


def _check(name, measured, tol, larger_ok=False, note=""):
    ok = measured >= tol if larger_ok else measured <= tol
    return CheckResult(name, bool(ok), float(measured), float(tol), note)


def verify_spectral() -> list:
    out = []
    complete = metropolis_weights(build_graph("complete", n=16))
    out.append(_check("complete n=16 lambda == 0", abs(complete.spectral.lam), 1e-12))
    ring = metropolis_weights(build_graph("ring", n=16))
    grid = metropolis_weights(build_graph("grid:4x4"))
    k = np.arange(16)
    circulant = np.sort((1.0 + 2.0 * np.cos(2.0 * np.pi * k / 16)) / 3.0)[::-1]
    dev = np.max(np.abs(np.sort(ring.spectral.eigenvalues)[::-1] - circulant))
    out.append(_check("ring n=16 circulant eigenvalues", dev, 1e-9))
    out.append(_check("ring gap < grid gap (n=16)",
                      grid.spectral.gap - ring.spectral.gap, 0.0, larger_ok=True,
                      note=f"(ring {ring.spectral.gap:.4f}, grid {grid.spectral.gap:.4f})"))
    for name, mix in (("ring16", ring), ("grid4x4", grid)):
        s = mix.spectral
        recon = s.eigvecs @ np.diag(s.eigenvalues) @ s.eigvecs.T
        out.append(_check(f"{name} eigendecomposition reconstructs W",
                          np.linalg.norm(recon - mix.w), 1e-9))
        out.append(_check(f"{name} doubly stochastic",
                          max(np.abs(mix.w.sum(0) - 1).max(),
                              np.abs(mix.w.sum(1) - 1).max()), 1e-12))
        direct = np.linalg.norm(mix.w - np.ones((16, 16)) / 16.0, 2)
        out.append(_check(f"{name} lambda equals ||W - J/n||_2",
                          abs(s.lam - direct), 1e-9))
    lazy = lazify(ring, 0.5)
    out.append(_check("lazify tau=0.5 keeps rows stochastic",
                      np.abs(lazy.w.sum(1) - 1).max(), 1e-14))
    out.append(_check("lazify tau=0.5 makes ring n=16 PD",
                      lazy.spectral.lambda_min, 0.0, larger_ok=True))
    return out


def verify_rr_variance(rng_seed: int = 7) -> list:
    """Enumerated without-replacement variance against its closed form for
    m = 2..6 random 3-vectors drawn from `rng_seed`."""
    out = []
    rng = np.random.default_rng(rng_seed)
    for m in range(2, 7):
        X = rng.normal(size=(m, 3))
        worst = 0.0
        for ell in range(1, m + 1):
            emp, pred = rr_variance(X, ell)
            worst = max(worst, abs(emp - pred))
        out.append(_check(f"without-replacement variance m={m}", worst, 1e-12))
    return out


def verify_shuffle() -> list:
    out = verify_rr_variance()
    stream = PermutationStream(12345, "rr")
    counts = {}
    for t in range(120_000):
        key = tuple(stream.permutation(0, t, 3))
        counts[key] = counts.get(key, 0) + 1
    dev = max(abs(c - 20_000) for c in counts.values())
    out.append(_check("uniformity m=3 over 120000 epochs (max count dev)", dev, 500,
                      note=f"counts {sorted(counts.values())}"))
    same = np.array_equal(stream.permutation(3, 9, 8), stream.permutation(3, 9, 8))
    out.append(_check("keyed determinism", 0.0 if same else 1.0, 0.5))
    return out


def _trajectory_gaps(x0, epochs, alpha, reference, *others) -> list:
    """Largest relative gap ||X_ref - X|| / max(1, ||X_ref||) over the epoch
    ends of `reference` and of each of `others`, all started at `x0`."""
    machines = (reference, *others)
    for machine in machines:
        machine.reset(x0)
    worst = [0.0] * len(others)
    for t in range(epochs):
        for machine in machines:
            machine.epoch(t, alpha)
        ref = reference.X
        for k, machine in enumerate(others):
            worst[k] = max(worst[k], np.linalg.norm(ref - machine.X)
                           / max(1.0, np.linalg.norm(ref)))
    return worst


def verify_abc(seed: int = 11, epochs: int = 5) -> list:
    """The cross-implementation oracles on make_quadratic(8, 5, 4, seed=11,
    condition=2.0) and the ring n=8 (lazified at 0.5 for exact diffusion),
    at alpha 0.02 for `epochs` epochs; `seed` keys the permutation streams and
    the common start x0.

    Checks: native GT-RR and ED-RR against the (A, B^2, C) engine and the
    transformed recursion, x-only ED-RR against primal-dual ED-RR, the GT-RR
    tracker-average identity, and the mean-iterate identity of crr, drr, gtrr
    and edrr.
    """
    obj = make_quadratic(8, 5, 4, seed=11, condition=2.0)
    ring = metropolis_weights(build_graph("ring", n=8))
    lazy = lazify(ring, 0.5)
    x0 = algorithms.initial_iterates(obj, "same", 1.0, init_seed=seed)
    alpha = 0.02
    stream = lambda: PermutationStream(seed, "rr")  # noqa: E731
    gt_op, ed_op = unified.gtrr_operator(ring), unified.edrr_operator(lazy)
    gaps = _trajectory_gaps(x0, epochs, alpha, algorithms.GTRR(obj, ring, stream()),
                            unified.AbcEngine(gt_op, obj, stream()),
                            unified.TransformedEngine(gt_op, obj, stream()))
    gaps += _trajectory_gaps(x0, epochs, alpha, algorithms.EDRR(obj, lazy, stream()),
                             algorithms.EDRRPrimalDual(obj, lazy, stream()),
                             unified.AbcEngine(ed_op, obj, stream()),
                             unified.TransformedEngine(ed_op, obj, stream()))
    names = ("gtrr == abc(W, I-W, W)", "gtrr == transformed recursion",
             "edrr x-only == primal-dual", "edrr == abc(W, (I-W)^1/2, I)",
             "edrr == transformed recursion")
    out = [_check(name, gap, 1e-9) for name, gap in zip(names, gaps)]

    worst = {"tracker": 0.0}
    for name in ("crr", "drr", "gtrr", "edrr"):
        machine = algorithms.make_method(name, obj, lazy if name == "edrr" else ring, seed)
        machine.reset(x0)
        worst[name] = 0.0

        def probe(info, name=name):
            gbar = info.grads.mean(axis=0)
            want = info.X_before.mean(axis=0) - info.alpha * gbar
            got = info.X_after.mean(axis=0)
            worst[name] = max(worst[name], float(np.max(np.abs(got - want))))
            if name == "gtrr":
                ybar = info.Y.mean(axis=0)
                worst["tracker"] = max(worst["tracker"], float(np.max(np.abs(ybar - gbar))))

        for t in range(epochs):
            machine.epoch(t, alpha, probe=probe)
    out.append(_check("tracker average equals mean shuffled gradient",
                      worst.pop("tracker"), 1e-10))
    out.extend(_check(f"mean-iterate identity {name}", dev, 1e-10)
               for name, dev in worst.items())
    return out


def verify_operator(op: unified.AbcOperator, label: str) -> list:
    """The two-variable (A, B^2, C) recursion against the transformed
    recursion on a quadratic over `op`'s graph, and the transform's gamma < 1;
    check names start with `label`."""
    obj = make_quadratic(op.mix.n, 4, 3, seed=1, condition=2.0)
    x0 = algorithms.initial_iterates(obj, "same", 1.0, init_seed=1)
    gap, = _trajectory_gaps(x0, 5, 0.01,
                            unified.AbcEngine(op, obj, PermutationStream(1, "rr")),
                            unified.TransformedEngine(op, obj, PermutationStream(1, "rr")))
    return [_check(f"{label}: two-variable == transformed", gap, 1e-9),
            _check(f"{label}: gamma < 1", unified.transform_data(op).gamma, 1.0 - 1e-15)]


def verify_gradcheck(points: int = 100) -> list:
    out = []
    rng = np.random.default_rng(3)
    families = {
        "quadratic": make_quadratic(3, 4, 5, 5, condition=4.0),
        "logistic": make_logistic(3, 4, 5, 5, rho=0.2),
        "ncvx-logistic": make_nonconvex_logistic(3, 4, 5, 5, eta=0.2),
    }
    for name, obj in families.items():
        worst = 0.0
        for _ in range(points):
            i = int(rng.integers(obj.n))
            l = int(rng.integers(obj.m))
            x = rng.normal(size=obj.p)
            g = obj.component_grad(i, l, x)
            ghat = central_difference_grad(lambda z: obj.component_value(i, l, z), x)
            worst = max(worst, float(np.linalg.norm(g - ghat))
                        / max(1.0, float(np.linalg.norm(g))))
        out.append(_check(f"{name} gradient vs central differences", worst, 1e-6))
    return out


SUITES = {
    "spectral": verify_spectral,
    "shuffle": verify_shuffle,
    "abc": verify_abc,
    "gradcheck": verify_gradcheck,
}


def verify(suite: str = "all") -> list:
    if suite == "all":
        results = []
        for fn in SUITES.values():
            results.extend(fn())
        return results
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or all")
    return SUITES[suite]()
