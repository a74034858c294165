"""Epoch-stepping state machines for the seven methods.

Every method advances one epoch (m inner steps) at a time over a simulated
synchronous network: communication is a product with the mixing matrix's
operator (the dense W, or a neighbour gather on large sparse graphs), with no
message loss.  Random-reshuffling methods draw per-agent permutations
from a counter-keyed stream; their unshuffled twins draw i.i.d. indices from
the same stream in 'iid' mode.

Exact-diffusion boundary semantics: the primal-dual recursion with a
persistent dual variable is the reference (`EDRRPrimalDual`, which
`harness.verify_abc` checks `edrr` against; no method name selects it).  The
x-only form therefore carries its correction across epochs (the
plain-gradient branch fires only at the very first step); `strict_alg2=True`
instead resets the correction at every epoch start for comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import metrics as _metrics
from .objective import FiniteSumObjective
from .shuffling import PURPOSE_INIT, RESHUFFLE_MODES, PermutationStream, keyed_rng
from .topology import MixingMatrix, psd_sqrt

DIVERGENCE_NORM = 1e12
# `initial_iterates`' starts: one common point, or one point per agent
INIT_MODES = ("same", "random")


@dataclass(frozen=True)
class ProbeInfo:
    """Snapshot of one inner step, for identity checks and inner metrics."""

    ell: int
    alpha: float
    X_before: np.ndarray
    X_after: np.ndarray
    grads: np.ndarray
    Y: np.ndarray | None = None  # the tracker the step used


class _Method:
    """Common scaffolding and the one inner-step loop; subclasses implement
    `_step`, and `_start_epoch` or `_orders` where their epoch start differs."""

    name = "abstract"
    uses_rr = True  # False => requires iid sampling
    Y: np.ndarray | None = None  # gradient trackers only

    def __init__(self, objective: FiniteSumObjective, mix: MixingMatrix,
                 stream: PermutationStream):
        if objective.n != mix.n:
            raise ValueError("objective and mixing matrix disagree on n")
        if (stream.mode in RESHUFFLE_MODES) != self.uses_rr:
            modes = " or ".join(RESHUFFLE_MODES) if self.uses_rr else "iid"
            raise ValueError(f"{self.name} requires {modes} sampling")
        self.obj = objective
        self.W = mix.operator
        self.stream = stream
        self.n, self.m, self.p = objective.n, objective.m, objective.p
        self.X: np.ndarray | None = None

    def reset(self, X0: np.ndarray):
        X0 = np.array(X0, dtype=float)
        if X0.shape != (self.n, self.p):
            raise ValueError(f"X0 must be ({self.n},{self.p})")
        self.X = X0

    def epoch(self, t: int, alpha: float, probe=None):
        """Advance one epoch: m inner steps, each at the gradient of the
        current iterate along the epoch's orders."""
        # step ell's indices as one contiguous row of the transposed orders
        steps = self._orders(t).T.copy()
        self._start_epoch(alpha)
        for ell, idx in enumerate(steps):
            Xb = self.X
            g = self.obj.perm_grads(Xb, idx)
            self._step(ell, alpha, g)
            if probe is not None:
                probe(ProbeInfo(ell, alpha, Xb, self.X, g, self.Y))

    def _orders(self, t: int) -> np.ndarray:
        """(n, m) component indices of epoch t, one row per agent."""
        return self.stream.epoch_orders(self.n, t, self.m)

    def _start_epoch(self, alpha: float):
        pass

    def _step(self, ell: int, alpha: float, g: np.ndarray):
        """Replace self.X (and any auxiliary state) by inner step `ell`'s
        update, given the gradients g at the current iterate."""
        raise NotImplementedError

    def abc_state(self, alpha: float):
        """(X, S) of the unified transformed recursion at an epoch start,
        or None for methods outside the A/B/C family."""
        return None

    def _consensus_anchor(self, alpha: float) -> np.ndarray:
        """alpha W grad F(1 xbar^T), the term every transformed state S adds."""
        # the mean as np.mean takes it, without its per-call overhead
        xbar = self.X.sum(axis=0) / len(self.X)
        return alpha * (self.W @ self.obj.grads_at_consensus(xbar))


class CentralizedRR(_Method):
    """All agents share one iterate and one permutation per epoch."""

    name = "crr"

    def reset(self, X0):
        super().reset(X0)
        if np.max(np.abs(X0 - X0[0])) > 0:
            raise ValueError("centralized RR needs a common initial point")

    def _orders(self, t):
        return np.broadcast_to(self.stream.permutation(0, t, self.m), (self.n, self.m))

    def _step(self, ell, alpha, g):
        x = self.X[0] - alpha * g.mean(axis=0)
        self.X = np.broadcast_to(x, (self.n, self.p)).copy()


class DRR(_Method):
    """Decentralized gradient descent with per-agent reshuffling."""

    name = "drr"

    def _step(self, ell, alpha, g):
        self.X = self.W @ (self.X - alpha * g)


class DSGD(DRR):
    """D-RR's unshuffled twin: same update, i.i.d. index draws."""

    name = "dsgd"
    uses_rr = False


class GTRR(_Method):
    """Gradient tracking with random reshuffling.

    The tracker is re-initialized to the first shuffled gradient at every
    epoch start; each later step first mixes the tracker and corrects it with
    the change in shuffled gradient, then x descends along it and mixes.
    """

    name = "gtrr"

    def _step(self, ell, alpha, g):
        self.Y = g if ell == 0 else self.W @ self.Y + g - self._g
        self._g = g
        self.X = self.W @ (self.X - alpha * self.Y)

    def abc_state(self, alpha):
        return self.X, self.W @ self.X - self.X + self._consensus_anchor(alpha)


class DSGT(_Method):
    """Gradient tracking with i.i.d. sampling; the tracker persists across
    epochs (no reset), matching the standard method."""

    name = "dsgt"
    uses_rr = False

    def reset(self, X0):
        super().reset(X0)
        self.Y = None
        self._g = None
        # the epoch to run next and its orders (None until drawn)
        self._t_next, self._next_orders = 0, None

    def epoch(self, t, alpha, probe=None):
        # the tracker's last update of an epoch takes the next epoch's first
        # gradient, so this loop spans epochs and stays outside _Method.epoch
        if t != self._t_next:
            raise ValueError("dsgt epochs must be advanced consecutively from 0")
        self._t_next += 1
        if self._next_orders is None:
            self._next_orders = self._orders(t)
        orders = self._next_orders
        if self.Y is None:
            self._g = self.obj.perm_grads(self.X, orders[:, 0])
            self.Y = self._g.copy()
        for ell in range(self.m):
            Xb, Yb, gb = self.X, self.Y, self._g
            self.X = self.W @ (self.X - alpha * self.Y)
            if ell + 1 < self.m:
                nxt = orders[:, ell + 1]
            else:  # the first index of the next epoch
                self._next_orders = self._orders(t + 1)
                nxt = self._next_orders[:, 0]
            g_new = self.obj.perm_grads(self.X, nxt)
            self.Y = self.W @ self.Y + g_new - self._g
            self._g = g_new
            if probe is not None:
                probe(ProbeInfo(ell, alpha, Xb, self.X, gb, Yb))


class ED(_Method):
    """Exact diffusion with i.i.d. sampling: local step plus correction with
    the stored previous stochastic gradient, then mix."""

    name = "ed"
    uses_rr = False

    def __init__(self, objective, mix, stream):
        super().__init__(objective, mix, stream)
        # the analysis needs W >= 0; an eigenvalue lam < -1/3 of W even puts
        # a root of z^2 - 2 lam z + lam outside the unit circle, and the
        # recursion diverges
        if mix.spectral.lambda_min < -1e-12:
            raise ValueError(
                "exact diffusion needs a positive semidefinite W; apply lazify first"
            )

    def reset(self, X0):
        super().reset(X0)
        self._prev_x = None
        self._prev_ag = None  # previous alpha * gradient

    def _half_step(self, ag):
        """The local step before mixing, given ag = alpha * gradient."""
        if self._prev_x is None:
            return self.X - ag
        return 2.0 * self.X - self._prev_x - (ag - self._prev_ag)

    def _step(self, ell, alpha, g):
        ag = alpha * g
        half = self._half_step(ag)
        self._prev_x, self._prev_ag = self.X, ag
        self.X = self.W @ half


class EDRR(ED):
    """Exact diffusion with random reshuffling, x-only form.

    Carries E = (I-W)^(1/2) D, the running sum that the primal-dual form's
    dual D enters the transformed state through, so the transformed-state
    hook matches the primal-dual reference exactly.  Each step adds
    (I-W)^(1/2) (I-W)^(1/2) X = X - W X, which needs no square root.  With
    `strict_alg2` the correction (and E) reset at every epoch start instead
    of persisting.
    """

    name = "edrr"
    uses_rr = True

    def __init__(self, objective, mix, stream, strict_alg2: bool = False):
        super().__init__(objective, mix, stream)
        self.strict_alg2 = strict_alg2

    def reset(self, X0):
        super().reset(X0)
        self.E = np.zeros_like(self.X)

    def _start_epoch(self, alpha):
        if self.strict_alg2:
            self._prev_x = None
            self.E = np.zeros_like(self.X)

    def _step(self, ell, alpha, g):
        super()._step(ell, alpha, g)
        self.E = self.E + (self.X - self.W @ self.X)

    def abc_state(self, alpha):
        return self.X, self.E - (self.X - self.W @ self.X) + self._consensus_anchor(alpha)


class EDRRPrimalDual(ED):
    """Exact diffusion with reshuffling in its two-line primal-dual form: the
    reference that `harness.verify_abc` checks x-only ED-RR against, not a
    selectable method.  The dual D starts at zero, persists across epochs and
    mixes through the dense (I-W)^(1/2).  The PSD check is ED's."""

    name = "edrr-pd"
    uses_rr = True

    def __init__(self, objective, mix, stream):
        super().__init__(objective, mix, stream)
        self._b_half = psd_sqrt(np.eye(self.n) - mix.w)

    def reset(self, X0):
        super().reset(X0)
        self.D = np.zeros_like(self.X)

    def _step(self, ell, alpha, g):
        self.X = self.W @ (self.X - alpha * g) - self._b_half @ self.D
        self.D = self.D + self._b_half @ self.X

    def abc_state(self, alpha):
        return self.X, (self._b_half @ self.D - (self.X - self.W @ self.X)
                        + self._consensus_anchor(alpha))


METHODS = {
    cls.name: cls
    for cls in (CentralizedRR, DSGD, DRR, DSGT, GTRR, ED, EDRR)
}


def make_method(name: str, objective, mix, seed: int, sampling: str = "rr",
                strict_alg2: bool = False, streams: dict | None = None) -> _Method:
    """Method `name` on seed `seed`'s stream of its mode, taken from (or
    added to) `streams`, so that the methods made with one dict share it."""
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}; choose from {sorted(METHODS)}")
    cls = METHODS[name]
    mode = sampling if cls.uses_rr else "iid"
    streams = {} if streams is None else streams
    if mode not in streams:
        streams[mode] = PermutationStream(seed, mode)
    if name == "edrr":
        return cls(objective, mix, streams[mode], strict_alg2=strict_alg2)
    return cls(objective, mix, streams[mode])


def initial_iterates(objective, init: str = "same", init_scale: float = 1.0,
                     init_seed: int = 0, run_seed: int = 0) -> np.ndarray:
    """Common-point init (default, keyed off init_seed so all replicate runs
    share it) or per-agent Gaussian init keyed off the run seed."""
    n, p = objective.n, objective.p
    if init == "same":
        rng = keyed_rng(init_seed, PURPOSE_INIT, agent=0, epoch=0)
        x = init_scale * rng.normal(size=p)
        return np.tile(x, (n, 1))
    if init == "random":
        rng = keyed_rng(run_seed, PURPOSE_INIT, agent=1, epoch=0)
        return init_scale * rng.normal(size=(n, p))
    raise ValueError(f"init must be one of {', '.join(INIT_MODES)}, got {init!r}")


def _lockstep(method: _Method, objective, schedule, transform, T: int,
              traj: _metrics.Trajectory, inner_metrics: bool, timings: bool):
    """One run of `run` as a generator: each step records the snapshot of
    the next epoch boundary and runs that epoch, and the generator ends with
    the run, diverged or at t = T.  With `timings` its clock runs only
    while it steps."""
    history: list[float] = []
    own_ns, resumed = 0, time.perf_counter_ns()

    def elapsed():
        return own_ns + time.perf_counter_ns() - resumed if timings else None

    for t in range(T + 1):
        alpha = float(schedule.alpha(t, history))
        state = method.abc_state(alpha) if transform is not None else None
        rec = _metrics.record(traj, method.X, t, alpha, objective, transform,
                              None if state is None else state[1], elapsed())
        # NaN and inf fail the bound too, so no separate finiteness test
        if not np.linalg.norm(method.X) <= DIVERGENCE_NORM:
            traj.flag_diverged()
            return
        history.append(rec.fgap_bar if rec.fgap_bar is not None else rec.grad_norm_sq)
        if t == T:
            return
        inner = None
        if inner_metrics:
            def inner(info, _t=t, _alpha=alpha):
                if info.ell < method.m - 1:
                    _metrics.record(traj, info.X_after, _t + (info.ell + 1) / method.m,
                                    _alpha, objective, wall_ns=elapsed())
        method.epoch(t, alpha, probe=inner)
        own_ns += time.perf_counter_ns() - resumed
        yield
        resumed = time.perf_counter_ns()


def run(methods, objective, mix: MixingMatrix, schedule, T: int,
        seed: int, sampling: str = "rr", x0: np.ndarray | None = None,
        init: str = "same", init_scale: float = 1.0, init_seed: int = 0,
        transform=None, strict_alg2: bool = False, inner_metrics: bool = False,
        timings: bool = False):
    """Advance T epochs and record metrics at every epoch boundary.

    `methods` is one method name, with its `schedule` and `transform`, and
    the result its trajectory; or a sequence of names, with one schedule and
    one transform (or None for none) per name, and the result their
    trajectories in that order.  The methods run in lockstep, epoch by epoch,
    from one start, and those that sample in the same mode share one order
    stream.  Each run keeps its own arithmetic and schedule: it writes the
    bytes it would write alone, and a run that diverges ends alone.

    A trajectory has T+1 rows, plus T(m-1) interior rows with
    `inner_metrics` (fewer if the run is truncated by divergence, in which
    case the last row carries the flag).  Fully deterministic for fixed
    seeds unless `timings` is set.  A `transform` must be the one built for
    its method's operator.
    """
    one = isinstance(methods, str)
    if one:
        methods, schedule, transform = (methods,), (schedule,), (transform,)
    if x0 is None:
        x0 = initial_iterates(objective, init, init_scale, init_seed, seed)
    streams, trajs, runs = {}, [], []
    for name, sched, tr in zip(methods, schedule, transform or [None] * len(methods),
                               strict=True):
        if tr is not None and tr.method != name:
            raise ValueError(f"method {name!r} cannot take a transform built "
                             f"for method {tr.method!r}")
        machine = make_method(name, objective, mix, seed, sampling, strict_alg2, streams)
        machine.reset(x0)
        rows = T + 1 + (T * (machine.m - 1) if inner_metrics else 0)
        trajs.append(_metrics.Trajectory(rows))
        runs.append(_lockstep(machine, objective, sched, tr, T, trajs[-1], inner_metrics,
                              timings))
    while runs:  # one epoch of every run still going, in the order given
        runs = [r for r in runs if next(r, "ended") is None]
    return trajs[0] if one else trajs
