"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x), f_i = (1/m) sum_l f_il(x).

Three families: quadratic (exact constants, closed-form minimum), logistic
with ridge (strongly convex, estimated minimum), and logistic with a smooth
saturating penalty (nonconvex).  Gradient evaluation is pure, and every
average uses numpy's pairwise summation so runs are bit-reproducible.
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


@dataclass(frozen=True)
class ObjectiveConstants:
    """Smoothness/curvature constants plus minimum values with provenance.

    ``f_star_components`` is (1/mn) sum_{i,l} inf f_il and ``f_star_agents``
    is (1/n) sum_i inf f_i; Jensen gives f_star >= f_star_agents >=
    f_star_components whenever all are known.
    """

    L: float
    mu: float | None
    f_star: float | None
    f_star_components: float | None
    f_star_agents: float | None
    provenance: Mapping[str, str] = field(default_factory=dict)

    def tag(self, name: str) -> str:
        return self.provenance.get(name, UNAVAILABLE)


class FiniteSumObjective:
    """Interface shared by all families; subclasses fill in the math."""

    family = "abstract"
    n: int
    m: int
    p: int
    constants: ObjectiveConstants

    # -- single-point oracles -------------------------------------------------
    def component_value(self, i: int, l: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def component_grad(self, i: int, l: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def agent_value(self, i: int, x: np.ndarray) -> float:
        return float(np.mean([self.component_value(i, l, x) for l in range(self.m)]))

    def agent_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        return np.mean([self.component_grad(i, l, x) for l in range(self.m)], axis=0)

    def value(self, x: np.ndarray) -> float:
        return float(np.mean([self.agent_value(i, x) for i in range(self.n)]))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return np.mean([self.agent_grad(i, x) for i in range(self.n)], axis=0)

    # -- stacked oracles used by the simulators -------------------------------
    def perm_grads(self, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Rows grad f_{i, idx[i]}(X[i]); the shuffled-gradient stack."""
        return np.stack([self.component_grad(i, int(idx[i]), X[i]) for i in range(self.n)])

    def stacked_agent_grads(self, X: np.ndarray) -> np.ndarray:
        """Rows grad f_i(X[i]); with identical rows this is grad F(1 xbar^T)."""
        return np.stack([self.agent_grad(i, X[i]) for i in range(self.n)])

    def grads_at_consensus(self, xbar: np.ndarray) -> np.ndarray:
        return self.stacked_agent_grads(np.broadcast_to(xbar, (self.n, self.p)))

    def values_at(self, X: np.ndarray) -> np.ndarray:
        """Global f evaluated at each agent's iterate."""
        return np.array([self.value(X[i]) for i in range(X.shape[0])])

    def _check_indices(self, i: int, l: int):
        if not (0 <= i < self.n and 0 <= l < self.m):
            raise IndexError(f"component ({i},{l}) out of range ({self.n},{self.m})")


# ---------------------------------------------------------------------------
# quadratic family
# ---------------------------------------------------------------------------


class QuadraticObjective(FiniteSumObjective):
    """f_il(x) = 0.5 ||A_il x - b_il||^2 with exact constants.

    A has shape (n, m, k, p) and b (n, m, k).  Per-agent and global Hessians
    and linear terms are precomputed, so full gradients are closed-form.
    """

    family = "quadratic"

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 4 or b.ndim != 3 or A.shape[:3] != b.shape[:3]:
            raise ValueError("A must be (n,m,k,p) and b (n,m,k)")
        self.A, self.b = A, b
        self.n, self.m, k, self.p = A.shape
        self.H_agent = np.einsum("imkp,imkq->ipq", A, A) / self.m
        self.c_agent = np.einsum("imkp,imk->ip", A, b) / self.m
        self.H = self.H_agent.mean(axis=0)
        self.c = self.c_agent.mean(axis=0)
        self._b2 = 0.5 * float(np.mean(np.sum(b * b, axis=2)))
        hess_vals = np.linalg.eigvalsh(np.einsum("imkp,imkq->impq", A, A))
        L = float(hess_vals[..., -1].max())
        h_vals = np.linalg.eigvalsh(self.H)
        if h_vals[0] <= 1e-12 * max(h_vals[-1], 1.0):
            raise ValueError("average Hessian is singular; adjust conditioning")
        mu = float(h_vals[0])
        self.x_star = np.linalg.solve(self.H, self.c)
        f_star = self.value(self.x_star)
        # component minima: squared distance of b to range(A), projecting on
        # the left singular vectors above lstsq's default rank cutoff
        U, sv = np.linalg.svd(A, full_matrices=False)[:2]
        keep = sv > np.finfo(float).eps * max(k, self.p) * sv[..., :1]
        coef = np.einsum("imkr,imk->imr", U, b) * keep
        r = np.einsum("imkr,imr->imk", U, coef) - b
        f_star_components = float(np.mean(0.5 * np.sum(r * r, axis=2)))
        agent_min = np.empty(self.n)
        for i in range(self.n):
            xi = np.linalg.solve(self.H_agent[i], self.c_agent[i])
            agent_min[i] = self.agent_value(i, xi)
        self.constants = ObjectiveConstants(
            L=L, mu=mu, f_star=f_star,
            f_star_components=f_star_components,
            f_star_agents=float(agent_min.mean()),
            provenance={k: EXACT for k in
                        ("L", "mu", "f_star", "f_star_components", "f_star_agents")},
        )

    def component_value(self, i, l, x):
        self._check_indices(i, l)
        r = self.A[i, l] @ x - self.b[i, l]
        return 0.5 * float(r @ r)

    def component_grad(self, i, l, x):
        self._check_indices(i, l)
        r = self.A[i, l] @ x - self.b[i, l]
        return self.A[i, l].T @ r

    def agent_value(self, i, x):
        return 0.5 * float(x @ self.H_agent[i] @ x) - float(self.c_agent[i] @ x) \
            + 0.5 * float(np.mean(np.sum(self.b[i] ** 2, axis=1)))

    def agent_grad(self, i, x):
        return self.H_agent[i] @ x - self.c_agent[i]

    def value(self, x):
        return 0.5 * float(x @ self.H @ x) - float(self.c @ x) + self._b2

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
        quad = 0.5 * np.einsum("ip,pq,iq->i", X, self.H, X)
        return quad - X @ self.c + self._b2


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
    A = np.linalg.qr(rng.normal(size=(n, m, p, p)))[0]
    # scale columns: A^T A = diag(s^2); s is all ones at condition 1
    A *= np.logspace(0.0, 0.5 * np.log10(condition), p)
    x_hat = rng.normal(size=p)
    if consistent:
        targets = np.broadcast_to(x_hat, (n, m, p)).copy()
    else:
        h = hetero * rng.normal(size=(n, 1, p))
        xi = spread * rng.normal(size=(n, m, p))
        targets = x_hat + h + xi
    b = np.einsum("imkp,imp->imk", A, targets)
    return QuadraticObjective(A, b)


# ---------------------------------------------------------------------------
# logistic families
# ---------------------------------------------------------------------------


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) without overflow
    return np.logaddexp(0.0, z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class _LogisticBase(FiniteSumObjective):
    """Shared machinery: component l of agent i is one (feature, label) pair
    plus the full regularizer, so f_i = mean_l f_il reproduces the per-agent
    loss with a single regularizer term."""

    def __init__(self, feats: np.ndarray, labels: np.ndarray):
        feats = np.asarray(feats, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if feats.ndim != 3 or labels.shape != feats.shape[:2]:
            raise ValueError("features must be (n,m,p), labels (n,m)")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be +-1")
        self.feats, self.labels = feats, labels
        self.n, self.m, self.p = feats.shape
        self.signed = feats * labels[:, :, None]  # u_j v_j rows

    def _reg_value(self, x):
        raise NotImplementedError

    def _reg_grad(self, x):
        raise NotImplementedError

    def component_value(self, i, l, x):
        self._check_indices(i, l)
        return float(_softplus(-self.signed[i, l] @ x)) + self._reg_value(x)

    def component_grad(self, i, l, x):
        self._check_indices(i, l)
        z = self.signed[i, l] @ x
        return -_sigmoid(-z) * self.signed[i, l] + self._reg_grad(x)

    def agent_value(self, i, x):
        return float(np.mean(_softplus(-self.signed[i] @ x))) + self._reg_value(x)

    def agent_grad(self, i, x):
        z = self.signed[i] @ x
        coef = -_sigmoid(-z) / self.m
        return coef @ self.signed[i] + self._reg_grad(x)

    def value(self, x):
        return float(np.mean(_softplus(-self.signed @ x))) + self._reg_value(x)

    def grad(self, x):
        z = self.signed @ x
        coef = -_sigmoid(-z) / (self.n * self.m)
        return np.einsum("im,imp->p", coef, self.signed) + self._reg_grad(x)

    def perm_grads(self, X, idx):
        ar = np.arange(self.n)
        rows = self.signed[ar, idx]                    # (n, p)
        z = np.einsum("ip,ip->i", rows, X)
        base = -_sigmoid(-z)[:, None] * rows
        return base + self._reg_grad_rows(X)

    def stacked_agent_grads(self, X):
        z = np.einsum("imp,ip->im", self.signed, X)
        coef = -_sigmoid(-z) / self.m
        return np.einsum("im,imp->ip", coef, self.signed) + self._reg_grad_rows(X)

    def values_at(self, X):
        z = np.einsum("imp,jp->imj", self.signed, X)
        loss = _softplus(-z).mean(axis=(0, 1))
        return loss + np.array([self._reg_value(x) for x in X])

    def _reg_grad_rows(self, X):
        return np.stack([self._reg_grad(x) for x in X])


class LogisticObjective(_LogisticBase):
    """Binary logistic loss with ridge (rho/2)||x||^2; strongly convex."""

    family = "logistic"

    def __init__(self, feats, labels, rho: float = 0.2):
        super().__init__(feats, labels)
        self.rho = float(rho)
        L = float(np.max(np.sum(feats ** 2, axis=2))) / 4.0 + self.rho
        f_star, _ = estimate_minimum(self.value, self.grad, self.p, L)
        self.constants = ObjectiveConstants(
            L=L, mu=self.rho, f_star=f_star,
            f_star_components=None, f_star_agents=None,
            provenance={"L": EXACT, "mu": EXACT, "f_star": ESTIMATED,
                        "f_star_components": UNAVAILABLE,
                        "f_star_agents": UNAVAILABLE},
        )

    def _reg_value(self, x):
        return 0.5 * self.rho * float(x @ x)

    def _reg_grad(self, x):
        return self.rho * x

    def _reg_grad_rows(self, X):
        return self.rho * X


class NonconvexLogisticObjective(_LogisticBase):
    """Logistic loss with the saturating penalty (eta/2) sum x_q^2/(1+x_q^2)."""

    family = "ncvx-logistic"

    def __init__(self, feats, labels, eta: float = 0.2):
        super().__init__(feats, labels)
        self.eta = float(eta)
        # the penalty's second derivative is bounded by eta in absolute value
        L = float(np.max(np.sum(feats ** 2, axis=2))) / 4.0 + self.eta
        f_star, _ = estimate_minimum(self.value, self.grad, self.p, L)
        self.constants = ObjectiveConstants(
            L=L, mu=None, f_star=f_star,
            f_star_components=None, f_star_agents=None,
            provenance={"L": EXACT, "mu": UNAVAILABLE, "f_star": ESTIMATED,
                        "f_star_components": UNAVAILABLE,
                        "f_star_agents": UNAVAILABLE},
        )

    def _reg_value(self, x):
        return 0.5 * self.eta * float(np.sum(x * x / (1.0 + x * x)))

    def _reg_grad(self, x):
        return self.eta * x / (1.0 + x * x) ** 2

    def _reg_grad_rows(self, X):
        return self.eta * X / (1.0 + X * X) ** 2


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
