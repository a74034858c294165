"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x), f_i = (1/m) sum_l f_il(x).

Three families: quadratic (exact constants, closed-form minimum), logistic
with ridge (strongly convex, estimated minimum), and logistic with a smooth
saturating penalty (nonconvex).  `make_quadratic` draws quadratics whose
component Grams are one diagonal, evaluated in closed form by
`SeparableQuadratic`; `QuadraticObjective` takes any component matrices.
Gradient evaluation is pure, and every average uses numpy's pairwise
summation so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import partition_data, synthetic_classification
from .shuffling import PURPOSE_MC, keyed_rng

EXACT = "exact"
ESTIMATED = "estimated"
UNAVAILABLE = "unavailable"


_MINIMA = ("f_star", "f_star_components", "f_star_agents")


@dataclass(frozen=True)
class ObjectiveConstants:
    """Smoothness/curvature constants plus minimum values with provenance.

    ``f_star_components`` is (1/mn) sum_{i,l} inf f_il and ``f_star_agents``
    is (1/n) sum_i inf f_i; Jensen gives f_star >= f_star_agents >=
    f_star_components whenever all are known.

    A minimum may be given as a zero-argument function instead of a value,
    which returns the value and its tag, written into `provenance`.  It runs
    on the first read of that field or of its tag, and the field then holds
    the value as a plain attribute, so later reads cost nothing extra.
    """

    L: float
    mu: float | None
    f_star: float | None
    f_star_components: float | None
    f_star_agents: float | None
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        # a deferred minimum leaves the instance dict, so its first read
        # falls through to __getattr__
        pending = {name: self.__dict__.pop(name) for name in _MINIMA
                   if callable(self.__dict__[name])}
        object.__setattr__(self, "_pending", pending)

    def __getattr__(self, name):
        pending = self.__dict__.get("_pending", {})
        if name not in pending:
            raise AttributeError(name)
        value, self.provenance[name] = pending[name]()
        self.__dict__[name] = value
        return value

    def tag(self, name: str) -> str:
        if name in self._pending:
            getattr(self, name)  # a deferred minimum's tag comes with its value
        return self.provenance.get(name, UNAVAILABLE)


class FiniteSumObjective:
    """Interface shared by all families; subclasses fill in the math.

    Besides the component oracles each family provides agent_grad, value,
    grad, value_and_grad, and the stacked oracles used by the simulators:
    perm_grads(X, idx) with rows grad f_{i, idx[i]}(X[i]),
    stacked_agent_grads(X) with rows grad f_i(X[i]), and values_at(X), the
    global f at each row of X.
    """

    family = "abstract"
    n: int
    m: int
    p: int
    constants: ObjectiveConstants

    def component_value(self, i: int, l: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def component_grad(self, i: int, l: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """value(x) and grad(x), bit-equal to the two calls."""
        return self.value(x), self.grad(x)

    def grads_at_consensus(self, xbar: np.ndarray) -> np.ndarray:
        return self.stacked_agent_grads(np.broadcast_to(xbar, (self.n, self.p)))

    def _check_indices(self, i: int, l: int):
        if not (0 <= i < self.n and 0 <= l < self.m):
            raise IndexError(f"component ({i},{l}) out of range ({self.n},{self.m})")


# ---------------------------------------------------------------------------
# quadratic family
# ---------------------------------------------------------------------------


# floats per block (1 MB) when `make_quadratic` draws and drops its rotation
# normals, so no step holds them all
_BLOCK_FLOATS = 2 ** 17


class QuadraticObjective(FiniteSumObjective):
    """f_il(x) = 0.5 ||A_il x - b_il||^2 with exact constants, for any A.

    A has shape (n, m, k, p) and b (n, m, k).  L, the largest eigenvalue of
    any component Gram A_il^T A_il, is found by eigvalsh unless the caller
    knows it from how A was built.  Per-agent and global Hessians
    and linear terms are precomputed, so full gradients are closed-form.
    The global f is evaluated about its minimizer, f* + 0.5 (x - x*)^T H
    (x - x*), so a function gap carries no cancellation error.
    """

    family = "quadratic"

    def __init__(self, A: np.ndarray, b: np.ndarray, L: float | None = None):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 4 or b.ndim != 3 or A.shape[:3] != b.shape[:3]:
            raise ValueError("A must be (n,m,k,p) and b (n,m,k)")
        self.A, self.b = A, b
        self.n, self.m, _, self.p = A.shape
        # Gram products through BLAS: an agent's rows stacked over components
        rows = A.reshape(self.n, -1, self.p)
        self.H_agent = np.swapaxes(rows, 1, 2) @ rows
        self.H_agent /= self.m
        self.c_agent = np.einsum("imkp,imk->ip", A, b) / self.m
        self.H = self.H_agent.mean(axis=0)
        self.c = self.c_agent.mean(axis=0)
        if L is None:
            L = float(np.linalg.eigvalsh(np.swapaxes(A, 2, 3) @ A)[..., -1].max())
        h_vals = np.linalg.eigvalsh(self.H)
        if h_vals[0] <= 1e-12 * max(h_vals[-1], 1.0):
            raise ValueError("average Hessian is singular; adjust conditioning")
        mu = float(h_vals[0])
        self.x_star = np.linalg.solve(self.H, self.c)
        # f* from the residuals at x*, not from 0.5 x'Hx - c'x + 0.5|b|^2,
        # whose terms cancel to round-off of |b|^2 where f* is near zero
        r = A @ self.x_star - b
        self._f_star = 0.5 * float(np.mean(np.sum(r * r, axis=2)))
        self.constants = ObjectiveConstants(
            L=L, mu=mu, f_star=self._f_star,
            f_star_components=lambda: (self._component_minimum(), EXACT),
            f_star_agents=lambda: (self._agent_minimum(), EXACT),
            provenance={k: EXACT for k in ("L", "mu", "f_star")},
        )

    def _component_minimum(self) -> float:
        # squared distance of b to range(A), projecting on the left singular
        # vectors above lstsq's default rank cutoff
        A, b = self.A, self.b
        U, sv = np.linalg.svd(A, full_matrices=False)[:2]
        keep = sv > np.finfo(float).eps * max(A.shape[2:]) * sv[..., :1]
        coef = np.einsum("imkr,imk->imr", U, b) * keep
        r = np.einsum("imkr,imr->imk", U, coef) - b
        return float(np.mean(0.5 * np.sum(r * r, axis=2)))

    def _agent_minimum(self) -> float:
        # from the residuals at each agent's own minimizer, as f* is
        x_agent = np.array([np.linalg.solve(H, c)
                            for H, c in zip(self.H_agent, self.c_agent)])
        r = np.einsum("imkp,ip->imk", self.A, x_agent) - self.b
        return 0.5 * float(np.mean(np.sum(r * r, axis=2)))

    def component_value(self, i, l, x):
        self._check_indices(i, l)
        r = self.A[i, l] @ x - self.b[i, l]
        return 0.5 * float(r @ r)

    def component_grad(self, i, l, x):
        self._check_indices(i, l)
        r = self.A[i, l] @ x - self.b[i, l]
        return self.A[i, l].T @ r

    def agent_grad(self, i, x):
        return self.H_agent[i] @ x - self.c_agent[i]

    def value(self, x):
        d = x - self.x_star
        return 0.5 * float(d @ self.H @ d) + self._f_star

    def grad(self, x):
        return self.H @ x - self.c

    def perm_grads(self, X, idx):
        ar = np.arange(self.n)
        Ag = self.A[ar, idx]                           # (n, k, p)
        r = np.einsum("ikp,ip->ik", Ag, X) - self.b[ar, idx]
        return np.einsum("ikp,ik->ip", Ag, r)

    def stacked_agent_grads(self, X):
        return np.einsum("ipq,iq->ip", self.H_agent, X) - self.c_agent

    def values_at(self, X):
        D = X - self.x_star
        return 0.5 * np.einsum("ip,pq,iq->i", D, self.H, D) + self._f_star


class SeparableQuadratic(FiniteSumObjective):
    """f_il(x) = 0.5 sum_q d_q (x_q - t_ilq)^2, in closed form.

    This is the family `make_quadratic` draws: every component shares the
    curvatures d (p,) and has its own target t_il, a row of `targets`
    (n, m, p).  Each oracle is an elementwise expression in d, the targets,
    each agent's mean target and x* (the mean of all targets), so nothing of
    size p x p is stored or multiplied.  L = max d and mu = min d; f* and the
    agents' minimum come from the residuals at their minimizers, as
    `QuadraticObjective` takes them, and every component reaches 0 at its
    target.
    """

    family = "quadratic"

    def __init__(self, d: np.ndarray, targets: np.ndarray):
        d = np.asarray(d, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if d.ndim != 1 or targets.ndim != 3 or targets.shape[2] != d.size:
            raise ValueError("d must be (p,) and targets (n,m,p)")
        if not np.all(d > 0):
            raise ValueError("average Hessian is singular; every curvature must be > 0")
        self.d, self.targets = d, targets
        self.n, self.m, self.p = targets.shape
        self.t_agent = targets.mean(axis=1)
        self.x_star = self.t_agent.mean(axis=0)
        # perm_grads takes row i * m + idx[i] of the (n m, p) targets
        self._rows = targets.reshape(-1, self.p)
        self._first = np.arange(self.n) * self.m
        self._f_star = float(self._half_gap(targets - self.x_star).mean())
        self.constants = ObjectiveConstants(
            L=float(d.max()), mu=float(d.min()), f_star=self._f_star,
            f_star_components=0.0,
            f_star_agents=float(self._half_gap(targets - self.t_agent[:, None]).mean()),
            provenance={k: EXACT for k in ("L", "mu") + _MINIMA},
        )

    def _half_gap(self, D):
        """0.5 sum_q d_q D_q^2 over the last axis of D."""
        return 0.5 * np.einsum("...p,...p,p->...", D, D, self.d)

    def component_value(self, i, l, x):
        self._check_indices(i, l)
        return float(self._half_gap(x - self.targets[i, l]))

    def component_grad(self, i, l, x):
        self._check_indices(i, l)
        return self.d * (x - self.targets[i, l])

    def agent_grad(self, i, x):
        return self.d * (x - self.t_agent[i])

    def value(self, x):
        return float(self._half_gap(x - self.x_star)) + self._f_star

    def grad(self, x):
        return self.d * (x - self.x_star)

    def perm_grads(self, X, idx):
        G = self._rows.take(self._first + idx, axis=0)
        np.subtract(X, G, out=G)
        G *= self.d
        return G

    def stacked_agent_grads(self, X):
        return self.d * (X - self.t_agent)

    def values_at(self, X):
        return self._half_gap(X - self.x_star) + self._f_star


def _drop_normals(rng: np.random.Generator, count: int) -> None:
    """Advance `rng` past `count` standard normals, about 1 MB at a time.

    The (n, m, p, p) normals that the rotations Q were factored from come
    first in `make_quadratic`'s stream, so drawing and dropping them keeps
    every seed's targets.
    """
    buf = np.empty(max(1, min(count, _BLOCK_FLOATS)))
    for lo in range(0, count, len(buf)):
        rng.standard_normal(out=buf[:count - lo])


def make_quadratic(n: int, m: int, p: int, seed: int, condition: float = 1.0,
                   hetero: float = 1.0, spread: float = 1.0,
                   consistent: bool = False) -> SeparableQuadratic:
    """Random quadratic finite sum with controlled conditioning.

    Each component is 0.5||A(x - t)||^2 with A = Q diag(s)^(1/2), Q a random
    rotation and s log-spaced in [1, condition].  Since A^T A = diag(s), Q
    cancels and the component is 0.5 sum_q s_q (x_q - t_q)^2, which
    `SeparableQuadratic` evaluates with d = s.  Component targets t are
    x_hat + hetero*h_i + spread*xi_il, giving across-agent heterogeneity and
    within-agent dispersion separately.  ``consistent`` collapses all targets
    to x_hat so the global minimum value is zero.
    """
    if condition < 1.0:
        raise ValueError("condition must be >= 1")
    rng = keyed_rng(seed, PURPOSE_MC, agent=2, epoch=0)
    # A = Q diag(scale) has A^T A = diag(scale^2); scale is all ones at
    # condition 1
    scale = np.logspace(0.0, 0.5 * np.log10(condition), p)
    _drop_normals(rng, n * m * p * p)
    x_hat = rng.normal(size=p)
    if consistent:
        targets = np.broadcast_to(x_hat, (n, m, p)).copy()
    else:
        h = hetero * rng.normal(size=(n, 1, p))
        # x_hat + h + xi, summed in place into the dispersion draw xi
        targets = rng.normal(size=(n, m, p))
        targets *= spread
        targets += x_hat + h
    return SeparableQuadratic(scale ** 2, targets)


# ---------------------------------------------------------------------------
# logistic families
# ---------------------------------------------------------------------------


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) without overflow
    return np.logaddexp(0.0, z)


def _tanh_plus_one(w, out=None):
    """1 + tanh(w); `out=w` computes it in place.  At w = -z/2 for a margin z
    this is 2 sigmoid(-z), minus twice the derivative of softplus(-z)."""
    c = np.tanh(w, out=out)
    c += 1.0
    return c


class _LogisticBase(FiniteSumObjective):
    """Shared machinery: component l of agent i is one (feature, label) pair
    plus the full regularizer, so f_i = mean_l f_il reproduces the per-agent
    loss with a single regularizer term.

    `weight` bounds the regularizer's curvature in absolute value; it is also
    the strong-convexity constant when `convex` is set.

    The samples are stored once, as h_j = -u_j v_j / 2 (`_scaled`, with
    `_rows` its (n m, p) view).  Scaling by a power of two is exact, so
    w = h_j . x is exactly -z/2 for the margin z = u_j v_j . x, and
    (1 + tanh(w)) h_j is exactly the loss gradient -sigmoid(-z) u_j v_j,
    unless a product or partial sum is subnormal or overflows: the -1/2
    factors that the oracles would otherwise apply to every margin and slope
    are absorbed into the stored rows, bit for bit (README, "Function values
    of the logistic families").
    """

    def __init__(self, feats: np.ndarray, labels: np.ndarray, weight: float,
                 convex: bool):
        feats = np.asarray(feats, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if feats.ndim != 3 or labels.shape != feats.shape[:2]:
            raise ValueError("features must be (n,m,p), labels (n,m)")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be +-1")
        self.labels = labels
        self.n, self.m, self.p = feats.shape
        signed = feats * labels[:, :, None]  # u_j v_j rows
        self.weight = float(weight)
        # exact L and mu (labels are +-1, so |u_j v_j| = |u_j|); f* is
        # estimated on its first read
        L = float(np.max(np.sum(signed ** 2, axis=2))) / 4.0 + self.weight
        signed *= -0.5
        self._scaled = signed
        # perm_grads takes row i * m + idx[i] of the (n m, p) rows
        self._rows = signed.reshape(-1, self.p)
        self._first = np.arange(self.n) * self.m
        self.constants = ObjectiveConstants(
            L=L, mu=self.weight if convex else None,
            f_star=lambda: self._estimate_f_star(L),
            f_star_components=None, f_star_agents=None,
            provenance={"L": EXACT, "mu": EXACT if convex else UNAVAILABLE},
        )

    def _estimate_f_star(self, L: float) -> tuple[float, str]:
        f_star, _, converged = estimate_minimum(self.value, self.grad, self.p, L)
        return f_star, ESTIMATED if converged else f"{ESTIMATED}-unconverged"

    def _reg_value(self, x):
        """Regularizer value at x, or row-wise at a stack of points."""
        raise NotImplementedError

    def _reg_grad(self, x):
        """Regularizer gradient at x, or row-wise at a stack of points."""
        raise NotImplementedError

    def component_value(self, i, l, x):
        self._check_indices(i, l)
        return float(_softplus(2.0 * (self._scaled[i, l] @ x)) + self._reg_value(x))

    def component_grad(self, i, l, x):
        self._check_indices(i, l)
        h = self._scaled[i, l]
        return _tanh_plus_one(h @ x) * h + self._reg_grad(x)

    def agent_grad(self, i, x):
        coef = _tanh_plus_one(self._scaled[i] @ x)
        coef /= self.m
        return coef @ self._scaled[i] + self._reg_grad(x)

    def value(self, x):
        return self._value_at(self._scaled @ x, x)

    def grad(self, x):
        return self._grad_at(self._scaled @ x, x)

    def value_and_grad(self, x):
        # one product with the stored rows serves both
        w = self._scaled @ x
        return self._value_at(w, x), self._grad_at(w, x)

    def _value_at(self, w, x):
        # softplus(-z) at -z = 2w; the mean as np.mean takes it, without its
        # per-call overhead
        loss = _softplus(2.0 * w)
        return float(loss.sum() / loss.size + self._reg_value(x))

    def _grad_at(self, w, x):
        coef = _tanh_plus_one(w)
        coef /= self.n * self.m
        return np.einsum("im,imp->p", coef, self._scaled) + self._reg_grad(x)

    def perm_grads(self, X, idx):
        rows = self._rows.take(self._first + idx, axis=0)   # (n, p)
        w = np.einsum("ip,ip->i", rows, X)
        np.tanh(w, out=w)   # _tanh_plus_one inlined: this runs every step
        w += 1.0
        rows *= w[:, None]
        rows += self._reg_grad(X)
        return rows

    def stacked_agent_grads(self, X):
        return self._agent_grads(np.einsum("imp,ip->im", self._scaled, X), X)

    def grads_at_consensus(self, xbar):
        # every agent at one point: the margins contract xbar directly, with
        # the bits of stacked_agent_grads at its rows broadcast
        return self._agent_grads(np.einsum("imp,p->im", self._scaled, xbar), xbar)

    def _agent_grads(self, w, x):
        """Rows grad f_i from the (n, m) products w of the stored rows with
        each agent's point, and those points x (rows, or one shared point)."""
        coef = _tanh_plus_one(w, out=w)
        coef /= self.m
        return np.einsum("im,imp->ip", coef, self._scaled) + self._reg_grad(x)

    def values_at(self, X):
        # the margins of every component at every row of X from one GEMM,
        # one row of X per row of z, so each mean sums a contiguous row; then
        # softplus(-z) = log1p(exp(-|z|)) - min(z, 0) in place, cheaper than
        # logaddexp (value() keeps logaddexp, see README)
        z = X @ self._rows.T
        z *= -2.0
        low = np.minimum(z, 0.0)
        loss = np.abs(z, out=z)
        np.negative(loss, out=loss)
        np.exp(loss, out=loss)
        np.log1p(loss, out=loss)
        loss -= low
        return loss.sum(axis=1) / loss.shape[1] + self._reg_value(X)


class LogisticObjective(_LogisticBase):
    """Binary logistic loss with ridge (rho/2)||x||^2; strongly convex."""

    family = "logistic"

    def __init__(self, feats, labels, rho: float = 0.2):
        super().__init__(feats, labels, rho, convex=True)
        self.rho = self.weight

    def _reg_value(self, x):
        return 0.5 * self.rho * (x[..., None, :] @ x[..., :, None])[..., 0, 0]

    def _reg_grad(self, x):
        return self.rho * x


class NonconvexLogisticObjective(_LogisticBase):
    """Logistic loss with the saturating penalty (eta/2) sum x_q^2/(1+x_q^2),
    whose second derivative is bounded by eta in absolute value."""

    family = "ncvx-logistic"

    def __init__(self, feats, labels, eta: float = 0.2):
        super().__init__(feats, labels, eta, convex=False)
        self.eta = self.weight

    def _reg_value(self, x):
        return 0.5 * self.eta * np.sum(x * x / (1.0 + x * x), axis=-1)

    def _reg_grad(self, x):
        return self.eta * x / (1.0 + x * x) ** 2


def make_logistic(n: int, m: int, p: int, seed: int, rho: float = 0.2,
                  heterogeneous: bool = True, scale: float = 1.0) -> LogisticObjective:
    feats, labels = synthetic_classification(n * m, p, seed, scale=scale)
    return logistic_from_samples(feats, labels, n, m, rho=rho,
                                 heterogeneous=heterogeneous, seed=seed)


def make_nonconvex_logistic(n: int, m: int, p: int, seed: int, eta: float = 0.2,
                            heterogeneous: bool = True,
                            scale: float = 1.0) -> NonconvexLogisticObjective:
    feats, labels = synthetic_classification(n * m, p, seed, scale=scale)
    return logistic_from_samples(feats, labels, n, m, heterogeneous=heterogeneous,
                                 seed=seed, nonconvex_eta=eta)


def logistic_from_samples(feats: np.ndarray, labels: np.ndarray, n: int, m: int,
                          rho: float = 0.2, heterogeneous: bool = True,
                          seed: int = 0, nonconvex_eta: float | None = None):
    """A logistic family on a sample pool (synthetic or e.g. CIFAR-10),
    partitioned over n agents of m samples each: the ridge family, or the
    nonconvex one when `nonconvex_eta` is given."""
    idx = partition_data(feats, labels, n, m, heterogeneous, seed=seed)
    if nonconvex_eta is None:
        return LogisticObjective(feats[idx], labels[idx], rho=rho)
    return NonconvexLogisticObjective(feats[idx], labels[idx], eta=nonconvex_eta)


# ---------------------------------------------------------------------------
# numeric helpers
# ---------------------------------------------------------------------------


def estimate_minimum(value, grad, p: int, L: float | None = None,
                     tol: float = 1e-10,
                     max_iter: int = 50_000) -> tuple[float, np.ndarray, bool]:
    """Full-gradient descent from the origin to ||grad f|| <= tol: (f, x,
    converged), converged False where it stopped short of tol.

    Backtracking line search drives the bulk of the descent; once the true
    per-step decrease falls below the floating-point resolution of f the
    Armijo test deadlocks, so the tail switches to plain 1/L gradient steps
    (the gradient stays accurate long after f-decrements vanish).  For the
    ridge-regularized loss the result is the global minimum; for the
    nonconvex family it is a stationary value.
    """
    x = np.zeros(p)
    f = value(x)
    g = grad(x)
    step = 1.0
    for _ in range(max_iter):
        gnorm2 = float(g @ g)
        if np.sqrt(gnorm2) <= tol:
            break
        floor = 64.0 * np.finfo(float).eps * max(abs(f), 1e-30)
        stalled = True
        while step * gnorm2 * 1e-4 > floor:
            trial = x - step * g
            f_trial = value(trial)
            if f_trial <= f - 1e-4 * step * gnorm2:
                x, f = trial, f_trial
                step = min(step * 2.0, 1e8)
                stalled = False
                break
            step *= 0.5
        if stalled:
            if L is None or L <= 0:
                break
            x = x - g / L
            f = value(x)
        g = grad(x)
    return float(f), x, bool(np.sqrt(float(g @ g)) <= tol)


def central_difference_grad(fun, x: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite differences with step h = rel_step * (1 + ||x||)."""
    x = np.asarray(x, dtype=float)
    h = rel_step * (1.0 + float(np.linalg.norm(x)))
    g = np.empty_like(x)
    for q in range(x.size):
        e = np.zeros_like(x)
        e[q] = h
        g[q] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g
