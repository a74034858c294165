"""The signed-sample form of the logistic families, kept as a reference for
`netshuffle.objective`: every oracle written on the signed rows
s_j = u_j v_j, with the -1/2 factors applied to each margin and slope, as the
objectives computed them before they stored -s_j / 2.  The rows come from the
same draws as `make_logistic` and `make_nonconvex_logistic`; the regularizers
are the objective's own."""

import numpy as np

from netshuffle.data import partition_data, synthetic_classification


def loss_slope(z, out=None):
    """-sigmoid(-z) = -0.5 (1 + tanh(-z/2)), the derivative of softplus(-z),
    with both sign flips folded into the arithmetic.  `out=z` computes it in
    place."""
    s = np.tanh(np.multiply(z, -0.5, out=out), out=out)
    s += 1.0
    s *= -0.5
    return s


def signed_rows(obj) -> np.ndarray:
    """The signed samples u_j v_j, (n, m, p), of a logistic objective, rebuilt
    exactly from its stored rows -u_j v_j / 2."""
    return obj._scaled * -2.0


def samples(n, m, p, seed, scale=1.0, heterogeneous=True) -> tuple:
    """(features, labels), (n, m, p) and (n, m), of `make_logistic(n, m, p,
    seed, ...)` and `make_nonconvex_logistic(n, m, p, seed, ...)`."""
    feats, labels = synthetic_classification(n * m, p, seed, scale=scale)
    idx = partition_data(feats, labels, n, m, heterogeneous, seed=seed)
    return feats[idx], labels[idx]


class SignedLogistic:
    """The oracles of `obj`'s family on the signed rows of `feats` and
    `labels`."""

    def __init__(self, obj, feats, labels):
        self.n, self.m, self.p = feats.shape
        self.signed = feats * labels[:, :, None]
        self.rows = self.signed.reshape(-1, self.p)
        self.first = np.arange(self.n) * self.m
        self.reg_value, self.reg_grad = obj._reg_value, obj._reg_grad

    def component_value(self, i, l, x):
        return float(np.logaddexp(0.0, -(self.signed[i, l] @ x)) + self.reg_value(x))

    def component_grad(self, i, l, x):
        z = self.signed[i, l] @ x
        return loss_slope(z) * self.signed[i, l] + self.reg_grad(x)

    def agent_grad(self, i, x):
        z = self.signed[i] @ x
        coef = loss_slope(z) / self.m
        return coef @ self.signed[i] + self.reg_grad(x)

    def value(self, x):
        return self._value_at(self.signed @ x, x)

    def grad(self, x):
        return self._grad_at(self.signed @ x, x)

    def value_and_grad(self, x):
        z = self.signed @ x
        return self._value_at(z, x), self._grad_at(z, x)

    def _value_at(self, z, x):
        loss = np.logaddexp(0.0, -z)
        return float(loss.sum() / loss.size + self.reg_value(x))

    def _grad_at(self, z, x):
        coef = loss_slope(z)
        coef /= self.n * self.m
        return np.einsum("im,imp->p", coef, self.signed) + self.reg_grad(x)

    def perm_grads(self, X, idx):
        rows = self.rows.take(self.first + idx, axis=0)
        z = np.einsum("ip,ip->i", rows, X)
        rows *= loss_slope(z, out=z)[:, None]
        rows += self.reg_grad(X)
        return rows

    def stacked_agent_grads(self, X):
        z = np.einsum("imp,ip->im", self.signed, X)
        coef = loss_slope(z) / self.m
        return np.einsum("im,imp->ip", coef, self.signed) + self.reg_grad(X)

    def grads_at_consensus(self, xbar):
        return self.stacked_agent_grads(np.broadcast_to(xbar, (self.n, self.p)))

    def values_at(self, X):
        z = X @ self.rows.T
        low = np.minimum(z, 0.0)
        loss = np.abs(z, out=z)
        np.negative(loss, out=loss)
        np.exp(loss, out=loss)
        np.log1p(loss, out=loss)
        loss -= low
        return loss.sum(axis=1) / loss.shape[1] + self.reg_value(X)
