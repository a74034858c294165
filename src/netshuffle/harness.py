"""Experiment orchestration: configs, sweeps, and the verification suites.

Configs are flat `key = value` text with dotted sections, mirrored 1:1 by CLI
flags (CLI overrides file).  The canonical serialization is hashed and the
hash embedded in every CSV, so outputs are attributable and reruns are
byte-comparable.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algorithms, metrics, stepsize, unified
from .data import load_cifar10
from .objective import (central_difference_grad, logistic_from_samples,
                        make_logistic, make_nonconvex_logistic, make_quadratic)
from .shuffling import PermutationStream, rr_variance
from .topology import (MixingMatrix, TopologyError, build_graph, lazify,
                       metropolis_weights, read_edge_file)

GENERATOR_TAG = "netshuffle 0.1.0"


class ConfigError(ValueError):
    """Bad experiment configuration."""


def _key(default, section: str, help: str | None = None, *, key: str | None = None,
         flag: str | None = None, choices=None, minimum: float | None = None,
         below: float | None = None, hashed: bool = True):
    """Declare a config field: its file key is `<section>.<key or field name>`,
    its CLI flag `--<flag or field name>` (underscores as dashes), and only
    hashed fields enter the canonical text.  `choices`, `minimum` (value >=
    minimum) and `below` (value < below) are checked by
    `config_from_mapping`, which also requires every float field to be
    finite and every list field to hold no entry twice."""
    return dataclasses.field(default=default, metadata={
        "section": section, "key": key, "flag": flag, "help": help,
        "choices": choices, "minimum": minimum, "below": below, "hashed": hashed})


@dataclass(frozen=True)
class ExperimentConfig:
    objective: str = _key("quadratic", "objective", key="family",
                          choices=("quadratic", "logistic", "ncvx-logistic"))
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
    graph: str = _key("ring", "topology", "ring|grid:RxC|complete|star|custom:<edge-file>")
    tau: float = _key(0.0, "topology", "lazify weight in [0,1); 0 keeps W",
                      minimum=0, below=1)
    methods: tuple = _key(("gtrr",), "run", "comma list from "
                          + ",".join(sorted(algorithms.METHODS)), flag="method")
    sampling: str = _key("rr", "run", choices=("rr", "once", "iid"))
    epochs: int = _key(100, "run", minimum=0)
    seeds: tuple = _key((0,), "run", "comma list of seeds", flag="seed")
    init: str = _key("same", "run", choices=("same", "random"))
    init_scale: float = _key(1.0, "run")
    stepsize: str = _key("const:0.001", "run",
                         "const:a | dec:theta,K | harmonic:a,b | plateau:a1,a2,... | auto")
    regime: str = _key("ncvx", "run", choices=("ncvx", "pl-const", "pl-decreasing"))
    theta: float = _key(20.0, "run")
    strict_alg2: bool = _key(False, "run")
    inner_metrics: bool = _key(False, "run")
    worst_case_constants: bool = _key(False, "run")
    # execution details that do not influence the produced numbers stay out
    # of the hash, so reruns in other directories hash (and therefore
    # serialize) identically
    outdir: str = _key("results", "run", "output directory", flag="out", hashed=False)
    timings: bool = _key(False, "run", hashed=False)


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_FIELD_TO_KEY = {name: f"{f.metadata['section']}.{f.metadata['key'] or name}"
                 for name, f in _FIELDS.items()}
_KEYMAP = {key: name for name, key in _FIELD_TO_KEY.items()}
_HASHED_KEYS = sorted(_FIELD_TO_KEY[name] for name, f in _FIELDS.items()
                      if f.metadata["hashed"])
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _coerce(field_name: str, raw):
    kind = _FIELDS[field_name].type
    if isinstance(raw, str):
        raw = raw.strip()
        if kind == "tuple":
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if field_name == "seeds":
                return tuple(int(p) for p in parts)
            return tuple(parts)
        if kind == "bool":
            if raw.lower() not in _BOOLS:
                raise ValueError(f"expected one of {', '.join(_BOOLS)}, got {raw!r}")
            return _BOOLS[raw.lower()]
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    if field_name == "seeds":
        return tuple(int(s) for s in raw)
    if field_name == "methods":
        return tuple(raw)
    return raw


def config_from_mapping(entries: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Override `base` with entries keyed by dotted file key or field name."""
    cfg = base or ExperimentConfig()
    updates = {}
    for key, raw in entries.items():
        field_name = _KEYMAP.get(key, key if key in _FIELDS else None)
        if field_name is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            updates[field_name] = _coerce(field_name, raw)
        except ValueError as exc:
            raise ConfigError(f"{_FIELD_TO_KEY[field_name]}: {exc}") from exc
    cfg = dataclasses.replace(cfg, **updates)
    for name, field in _FIELDS.items():
        value, meta = getattr(cfg, name), field.metadata
        if field.type == "float" and not np.isfinite(value):
            raise ConfigError(f"{_FIELD_TO_KEY[name]}: must be finite, got {value}")
        if field.type == "tuple" and len(set(value)) < len(value):
            raise ConfigError(f"{_FIELD_TO_KEY[name]}: repeated entry in "
                              f"{','.join(str(v) for v in value)}")
        if meta["choices"] is not None and value not in meta["choices"]:
            raise ConfigError(f"{_FIELD_TO_KEY[name]}: expected one of "
                              f"{', '.join(meta['choices'])}, got {value!r}")
        if meta["minimum"] is not None and not value >= meta["minimum"]:
            raise ConfigError(f"{_FIELD_TO_KEY[name]}: must be >= {meta['minimum']}, "
                              f"got {value}")
        if meta["below"] is not None and not value < meta["below"]:
            raise ConfigError(f"{_FIELD_TO_KEY[name]}: must be < {meta['below']}, "
                              f"got {value}")
    return cfg


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
    spec = cfg.graph
    try:
        if spec.startswith("grid:"):
            rows, cols = (int(v) for v in spec.split(":", 1)[1].lower().split("x"))
            graph = build_graph("grid", rows=rows, cols=cols)
        elif spec.startswith("custom:"):
            path = spec.split(":", 1)[1]
            graph = build_graph("custom", n=cfg.n, edges=read_edge_file(path))
        elif spec in ("ring", "complete", "star"):
            graph = build_graph(spec, n=cfg.n)
        else:
            raise ConfigError(f"unknown graph spec {spec!r}")
        mix = metropolis_weights(graph)
        if cfg.tau > 0.0:
            mix = lazify(mix, cfg.tau)
        return mix
    except TopologyError as exc:
        raise ConfigError(str(exc)) from exc


def build_objective(cfg: ExperimentConfig):
    if cfg.objective == "quadratic":
        return make_quadratic(cfg.n, cfg.m, cfg.dim, cfg.data_seed,
                              condition=cfg.condition, hetero=cfg.hetero_scale,
                              spread=cfg.spread)
    if cfg.objective in ("logistic", "ncvx-logistic"):
        if cfg.cifar10:
            feats, labels = load_cifar10(cfg.cifar10)
            eta = cfg.eta if cfg.objective == "ncvx-logistic" else None
            return logistic_from_samples(feats, labels, cfg.n, cfg.m, rho=cfg.rho,
                                         heterogeneous=cfg.hetero,
                                         seed=cfg.data_seed, nonconvex_eta=eta)
        if cfg.objective == "logistic":
            return make_logistic(cfg.n, cfg.m, cfg.dim, cfg.data_seed, rho=cfg.rho,
                                 heterogeneous=cfg.hetero, scale=cfg.scale)
        return make_nonconvex_logistic(cfg.n, cfg.m, cfg.dim, cfg.data_seed,
                                       eta=cfg.eta, heterogeneous=cfg.hetero,
                                       scale=cfg.scale)
    raise ConfigError(f"unknown objective {cfg.objective!r}")


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
    consts = objective.constants
    if cfg.stepsize == "auto":
        if transform is None:
            raise ConfigError(f"auto stepsize is undefined for method {method!r}")
        worst = method if cfg.worst_case_constants else None
        sched = stepsize.recommend_alpha(
            transform, cfg.m, consts.L, consts.mu, max(cfg.epochs, 1),
            regime=cfg.regime, theta=cfg.theta, worst_case=worst)
        if isinstance(sched, stepsize.ConstantSchedule):
            tc = stepsize.theory_constants(transform, cfg.m, consts.L, consts.mu,
                                           max(cfg.epochs, 1), worst_case=worst)
            if sched.value > tc.alpha_max_ncvx * (1 + 1e-12):
                raise ConfigError(f"auto stepsize {sched.value:.6g} exceeds the "
                                  f"admissible bound {tc.alpha_max_ncvx:.6g}")
        return sched
    try:
        return stepsize.parse_schedule(cfg.stepsize, mu=consts.mu, m=cfg.m)
    except ValueError as exc:
        raise ConfigError(f"{_FIELD_TO_KEY['stepsize']}: {exc}") from exc


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def plan_runs(cfg: ExperimentConfig) -> tuple:
    """Build `cfg`'s objective and mixing matrix and validate every method on
    them, before any run starts.

    Returns (objective, mix, plans): `plans[method]` is the (transform,
    schedule) that all of the method's seeds share.  An invalid pairing (say
    exact diffusion on an indefinite W) raises a ConfigError naming the
    method.
    """
    objective = build_objective(cfg)
    mix = build_mix(cfg)
    plans = {}
    for method in cfg.methods:
        try:
            algorithms.make_method(method, objective, mix, seed=0,
                                   sampling=cfg.sampling, strict_alg2=cfg.strict_alg2)
            transform = method_transform(method, mix)
            plans[method] = transform, build_schedule(cfg, method, objective, transform)
        except (ValueError, unified.OperatorError) as exc:
            raise ConfigError(f"method {method!r}: {exc}") from exc
    # every run's first snapshot reads f*; an estimated f* is computed here,
    # with the rest of the set-up
    objective.constants.f_star
    return objective, mix, plans


def run_one(cfg: ExperimentConfig, method: str, seed: int, objective,
            mix: MixingMatrix, plan: tuple) -> metrics.Trajectory:
    """One method for one seed, with the (transform, schedule) that
    `plan_runs` gave for it."""
    transform, schedule = plan
    return algorithms.run(
        method, objective, mix, schedule, cfg.epochs, seed,
        sampling=cfg.sampling, init=cfg.init, init_scale=cfg.init_scale,
        init_seed=cfg.data_seed, transform=transform,
        strict_alg2=cfg.strict_alg2, inner_metrics=cfg.inner_metrics,
        timings=cfg.timings,
    )


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
    any run starts.
    """
    outdir = Path(cfg.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output dir {outdir}: {exc}") from exc
    objective, mix, plans = plan_runs(cfg)
    results = {(method, seed): run_one(cfg, method, seed, objective, mix, plans[method])
               for method in cfg.methods for seed in cfg.seeds}

    written = {}
    for method in cfg.methods:
        per_seed = []
        for seed in cfg.seeds:
            traj = results[(method, seed)]
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
    grid = metropolis_weights(build_graph("grid", rows=4, cols=4))
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
