"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x), f_i = (1/m) sum_l f_il(x).

Three families: quadratic (exact constants, closed-form minimum), logistic
with ridge (strongly convex, estimated minimum), and logistic with a smooth
saturating penalty (nonconvex).  Gradient evaluation is pure, and every
average uses numpy's pairwise summation so runs are bit-reproducible.
"""

from __future__ import annotations

import math
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

    A minimum may be given as a zero-argument function instead of a value.
    It runs on the first read of that field, and the field then holds its
    result as a plain attribute, so later reads cost nothing extra.
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
        value = self.__dict__[name] = pending[name]()
        return value

    def tag(self, name: str) -> str:
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


# floats per block of agents (1 MB) when a quadratic's component stack is
# drawn, factored or eigen-solved, so no step holds a second copy of the stack
_BLOCK_FLOATS = 2 ** 17


def _agent_blocks(A: np.ndarray):
    """Consecutive views of A along its agent axis, about _BLOCK_FLOATS each."""
    step = max(1, _BLOCK_FLOATS // max(1, math.prod(A.shape[1:])))
    return (A[lo:lo + step] for lo in range(0, len(A), step))


class QuadraticObjective(FiniteSumObjective):
    """f_il(x) = 0.5 ||A_il x - b_il||^2 with exact constants.

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
            L = max(float(np.linalg.eigvalsh(np.swapaxes(blk, 2, 3) @ blk)[..., -1].max())
                    for blk in _agent_blocks(A))
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
            f_star_components=self._component_minimum,
            f_star_agents=self._agent_minimum,
            provenance={k: EXACT for k in ("L", "mu") + _MINIMA},
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


def make_quadratic(n: int, m: int, p: int, seed: int, condition: float = 1.0,
                   hetero: float = 1.0, spread: float = 1.0,
                   consistent: bool = False) -> QuadraticObjective:
    """Random quadratic finite sum with controlled conditioning.

    Each component is 0.5||A(x - t)||^2 with A = Q diag(s)^(1/2), Q a random
    rotation and s log-spaced in [1, condition].  Component targets t are
    x_hat + hetero*h_i + spread*xi_il, giving across-agent heterogeneity and
    within-agent dispersion separately.  ``consistent`` collapses all targets
    to x_hat so the global minimum value is zero.
    """
    if condition < 1.0:
        raise ValueError("condition must be >= 1")
    rng = keyed_rng(seed, PURPOSE_MC, agent=2, epoch=0)
    # scale columns: A^T A = diag(scale^2), so L = max scale^2; scale is all
    # ones at condition 1
    scale = np.logspace(0.0, 0.5 * np.log10(condition), p)
    # one draw and one QR per block of agents: the generator's draws follow
    # in order and QR factors each matrix alone, so the blocks fill the same
    # A as one (n, m, p, p) draw would, without a copy of the whole stack
    A = np.empty((n, m, p, p))
    for blk in _agent_blocks(A):
        np.multiply(np.linalg.qr(rng.normal(size=blk.shape))[0], scale, out=blk)
    x_hat = rng.normal(size=p)
    if consistent:
        targets = np.broadcast_to(x_hat, (n, m, p)).copy()
    else:
        h = hetero * rng.normal(size=(n, 1, p))
        # x_hat + h + xi, summed in place into the dispersion draw xi
        targets = rng.normal(size=(n, m, p))
        targets *= spread
        targets += x_hat + h
    b = np.einsum("imkp,imp->imk", A, targets)
    return QuadraticObjective(A, b, L=float(scale.max() ** 2))


# ---------------------------------------------------------------------------
# logistic families
# ---------------------------------------------------------------------------


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) without overflow
    return np.logaddexp(0.0, z)


def _loss_slope(z):
    """-sigmoid(-z) = -0.5 (1 + tanh(-z/2)), the derivative of softplus(-z),
    with both sign flips folded into the arithmetic; bit-equal to the
    unfolded form."""
    s = np.tanh(-0.5 * z)
    s += 1.0
    s *= -0.5
    return s


class _LogisticBase(FiniteSumObjective):
    """Shared machinery: component l of agent i is one (feature, label) pair
    plus the full regularizer, so f_i = mean_l f_il reproduces the per-agent
    loss with a single regularizer term.

    `weight` bounds the regularizer's curvature in absolute value; it is also
    the strong-convexity constant when `convex` is set.
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
        self.signed = feats * labels[:, :, None]  # u_j v_j rows
        self._agents = np.arange(self.n)
        self.weight = float(weight)
        # exact L and mu (labels are +-1, so |u_j v_j| = |u_j|); f* is
        # estimated on its first read
        L = float(np.max(np.sum(self.signed ** 2, axis=2))) / 4.0 + self.weight
        self.constants = ObjectiveConstants(
            L=L, mu=self.weight if convex else None,
            f_star=lambda: estimate_minimum(self.value, self.grad, self.p, L)[0],
            f_star_components=None, f_star_agents=None,
            provenance={"L": EXACT, "mu": EXACT if convex else UNAVAILABLE,
                        "f_star": ESTIMATED, "f_star_components": UNAVAILABLE,
                        "f_star_agents": UNAVAILABLE},
        )

    def _reg_value(self, x):
        """Regularizer value at x, or row-wise at a stack of points."""
        raise NotImplementedError

    def _reg_grad(self, x):
        """Regularizer gradient at x, or row-wise at a stack of points."""
        raise NotImplementedError

    def component_value(self, i, l, x):
        self._check_indices(i, l)
        return float(_softplus(-(self.signed[i, l] @ x)) + self._reg_value(x))

    def component_grad(self, i, l, x):
        self._check_indices(i, l)
        z = self.signed[i, l] @ x
        return _loss_slope(z) * self.signed[i, l] + self._reg_grad(x)

    def agent_grad(self, i, x):
        z = self.signed[i] @ x
        coef = _loss_slope(z) / self.m
        return coef @ self.signed[i] + self._reg_grad(x)

    def value(self, x):
        return self._value_at(self.signed @ x, x)

    def grad(self, x):
        return self._grad_at(self.signed @ x, x)

    def value_and_grad(self, x):
        # one product signed @ x serves both
        z = self.signed @ x
        return self._value_at(z, x), self._grad_at(z, x)

    def _value_at(self, z, x):
        # the mean as np.mean takes it, without its per-call overhead
        loss = _softplus(-z)
        return float(loss.sum() / loss.size + self._reg_value(x))

    def _grad_at(self, z, x):
        coef = _loss_slope(z)
        coef /= self.n * self.m
        return np.einsum("im,imp->p", coef, self.signed) + self._reg_grad(x)

    def perm_grads(self, X, idx):
        rows = self.signed[self._agents, idx]          # (n, p)
        z = np.einsum("ip,ip->i", rows, X)
        return _loss_slope(z)[:, None] * rows + self._reg_grad(X)

    def stacked_agent_grads(self, X):
        z = np.einsum("imp,ip->im", self.signed, X)
        coef = _loss_slope(z) / self.m
        return np.einsum("im,imp->ip", coef, self.signed) + self._reg_grad(X)

    def values_at(self, X):
        z = np.einsum("imp,jp->imj", self.signed, X)
        loss = _softplus(-z).mean(axis=(0, 1))
        return loss + self._reg_value(X)


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


def _partitioned_features(n, m, p, seed, heterogeneous, scale):
    feats, labels = synthetic_classification(n * m, p, seed, scale=scale)
    idx = partition_data(feats, labels, n, m, heterogeneous, seed=seed)
    return feats[idx], labels[idx]


def make_logistic(n: int, m: int, p: int, seed: int, rho: float = 0.2,
                  heterogeneous: bool = True, scale: float = 1.0) -> LogisticObjective:
    feats, labels = _partitioned_features(n, m, p, seed, heterogeneous, scale)
    return LogisticObjective(feats, labels, rho=rho)


def make_nonconvex_logistic(n: int, m: int, p: int, seed: int, eta: float = 0.2,
                            heterogeneous: bool = True,
                            scale: float = 1.0) -> NonconvexLogisticObjective:
    feats, labels = _partitioned_features(n, m, p, seed, heterogeneous, scale)
    return NonconvexLogisticObjective(feats, labels, eta=eta)


def logistic_from_samples(feats: np.ndarray, labels: np.ndarray, n: int, m: int,
                          rho: float = 0.2, heterogeneous: bool = True,
                          seed: int = 0, nonconvex_eta: float | None = None):
    """Build a logistic family from an external sample pool (e.g. CIFAR-10)."""
    idx = partition_data(feats, labels, n, m, heterogeneous, seed=seed)
    if nonconvex_eta is None:
        return LogisticObjective(feats[idx], labels[idx], rho=rho)
    return NonconvexLogisticObjective(feats[idx], labels[idx], eta=nonconvex_eta)


# ---------------------------------------------------------------------------
# numeric helpers
# ---------------------------------------------------------------------------


def estimate_minimum(value, grad, p: int, L: float | None = None,
                     tol: float = 1e-10,
                     max_iter: int = 50_000) -> tuple[float, np.ndarray]:
    """Full-gradient descent to ||grad f|| <= tol, starting from the origin.

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
    return float(f), x


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
