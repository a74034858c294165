"""Unified two-matrix recursion over polynomials of W, its transformed form,
and the block-diagonalizing spectral transform.

A method in this family advances, per inner step,

    x^{l+1} = A (C x^l - alpha grad_F_pi(x^l)) - B z^l
    z^{l+1} = z^l + B x^{l+1}

with A, B^2, C polynomials in W (A, C doubly stochastic; B vanishing exactly
on consensus).  Two presets recover the native methods: (W, I-W, W) with the
tracker-style reinit z = -W x at every epoch start reproduces gradient
tracking with reshuffling, and (W, (I-W)^(1/2), I) with a persistent z
started at zero reproduces exact diffusion with reshuffling.

The transformed recursion trades z for s = B(z - B x) + alpha A grad_F(1
xbar^T) and advances

    x^{l+1} = (AC - B^2) x^l - alpha A (grad_F_pi(x^l) - grad_F(1 xbar^T)) - s^l
    s^{l+1} = s^l + B^2 x^l

which is the same algebra step for step; both engines here are oracles for
the native implementations.

On the consensus-orthogonal subspace the pair (Uhat^T x, Lb^{-1} Uhat^T s)
evolves by a 2x2 block per eigenvalue of W.  Each block is brought to a
canonical similar form: a scaled rotation for complex eigenvalue pairs (norm
equals the spectral radius), a diagonal for distinct real eigenvalues, and a
Schur form with an orthogonal basis for repeated (defective) eigenvalues.
The contraction factor gamma is the largest block spectral radius, plus a
1e-12 guard whenever a defective block forced the Schur fallback, since no
similarity of a defective block can attain its radius in norm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algorithms import _Method
from .objective import FiniteSumObjective
from .shuffling import PermutationStream
from .topology import MixingMatrix, SpectralInfo, psd_sqrt

DEFECTIVE_GUARD = 1e-12
_B2_NEG_TOL = 1e-12
_NULL_TOL = 1e-12


class OperatorError(ValueError):
    """Polynomial triple violates the standing structural assumptions."""


def _poly_matrix(coeffs, W: np.ndarray) -> np.ndarray:
    """Evaluate sum_d c_d W^d by Horner's rule in the matrix argument."""
    n = W.shape[0]
    out = np.zeros((n, n))
    for c in reversed(coeffs):
        out = out @ W
        out[np.diag_indices(n)] += c
    return out


def _poly_scalar(coeffs, x):
    out = np.zeros_like(np.asarray(x, dtype=float))
    for c in reversed(list(coeffs)):
        out = out * x + c
    return out


def _divide_one_minus(coeffs) -> tuple[tuple, float]:
    """Synthetic division of sum_i c_i lam^i by (1 - lam): the quotient's
    coefficients (ascending) and the remainder, which is the sum at lam = 1.

    From (1 - lam) q(lam) = c(lam), q_{i-1} = q_i - c_i downwards from
    q_{d-1} = -c_d.
    """
    q = [0.0] * (len(coeffs) - 1)
    acc = 0.0
    for i in range(len(coeffs) - 1, 0, -1):
        acc -= coeffs[i]
        q[i - 1] = acc
    return tuple(q), coeffs[0] - acc


def factor_b2(poly_b2, eigenvalues: np.ndarray) -> tuple[int, tuple]:
    """Factor b^2(lam) = (1 - lam)^k r(lam) and check it on a spectrum.

    ``eigenvalues`` is W's spectrum with the consensus eigenvalue first.  The
    b-polynomial must vanish at 1 (within _B2_NEG_TOL); the root at 1 is
    divided out as often as it repeats.  B^2 must then be nonnegative on the
    spectrum, and r must have no root on the non-consensus part, judged
    against the size of the terms it sums (an absolute bound on b^2 itself
    would reject a large ring whose (1 - lam_2)^2 is tiny but exact).
    Returns (k, r); raises OperatorError otherwise.
    """
    coeffs = tuple(float(c) for c in poly_b2)
    if abs(_poly_scalar(coeffs, 1.0)) > _B2_NEG_TOL:
        raise OperatorError("B must vanish on consensus: the b-polynomial at 1 is nonzero")
    k, r = 0, coeffs
    while len(r) > 1:
        q, rem = _divide_one_minus(r)
        if k and abs(rem) > _B2_NEG_TOL * sum(abs(c) for c in r):
            break
        k, r = k + 1, q
    r_at = _poly_scalar(r, eigenvalues)
    b2_at = (1.0 - eigenvalues) ** k * r_at
    if b2_at.min() < -_B2_NEG_TOL:
        raise OperatorError(f"B^2 has negative eigenvalue {b2_at.min():.3g}")
    if np.any(r_at[1:] <= _NULL_TOL * _poly_scalar(np.abs(r), np.abs(eigenvalues[1:]))):
        raise OperatorError(
            "the null space of B exceeds the consensus span "
            "(b-polynomial vanishes at an eigenvalue below 1)"
        )
    return k, r


@dataclass(frozen=True)
class AbcOperator:
    """Realized (A, B, C) triple over a mixing matrix.

    The dense A, C, B^2 and its square root B are built on their first read:
    only the engines read them, and the spectral transform needs only the
    polynomials, so a sweep keeps W as its nonzeros (`build_operator` checks
    A and C of degree <= 1 on them).  z_mode 'reset' reapplies z = -W x at
    every epoch start; 'persist' starts z at zero once and carries it across
    epochs.
    ``root_order`` and ``poly_r`` are the factored b-polynomial,
    b^2(lam) = (1 - lam)^root_order r(lam).  ``method`` names the method a
    preset reproduces (None for any other triple).
    """

    mix: MixingMatrix
    poly_a: tuple
    poly_b2: tuple
    poly_c: tuple
    z_mode: str
    root_order: int
    poly_r: tuple
    method: str | None

    @functools.cached_property
    def A(self) -> np.ndarray:
        return _poly_matrix(self.poly_a, self.mix.w)

    @functools.cached_property
    def C(self) -> np.ndarray:
        return _poly_matrix(self.poly_c, self.mix.w)

    @functools.cached_property
    def B2(self) -> np.ndarray:
        return _poly_matrix(self.poly_b2, self.mix.w)

    @functools.cached_property
    def B(self) -> np.ndarray:
        # every eigenvalue of B^2 but the consensus one is at least b2_min > 0
        # (build_operator checked), so one below both bounds is its round-off
        b2_min = self.b2_and_b(self.mix.spectral.eigenvalues[1:])[0].min(initial=np.inf)
        return psd_sqrt(self.B2, null_tol=min(_NULL_TOL, 0.5 * b2_min))

    def b2_and_b(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """b^2 and b at eigenvalues below 1, from the factored form: 1 - lam
        is exact for lam in [0.5, 2] (Sterbenz), so neither cancels near
        lam = 1 as an expanded 1 - 2 lam + lam^2 does."""
        one_minus = 1.0 - lam
        r_vals = _poly_scalar(self.poly_r, lam)
        k = self.root_order
        b2 = np.clip(one_minus ** k * r_vals, 0.0, None)
        b = one_minus ** (k // 2) * np.sqrt(np.clip(one_minus ** (k % 2) * r_vals, 0.0, None))
        return b2, b


def build_operator(poly_a, poly_b2, poly_c, mix: MixingMatrix,
                   z_mode: str = "persist", method: str | None = None) -> AbcOperator:
    """Validate an operator triple from polynomial coefficients; its dense
    matrices are realized on their first read.  `method` names the method
    the triple reproduces, if any."""
    if z_mode not in ("reset", "persist"):
        raise OperatorError("z_mode must be 'reset' or 'persist'")
    for name, coeffs in (("A", poly_a), ("C", poly_c)):
        row_sums, low = _row_sums_and_min(tuple(coeffs), mix)
        if np.abs(row_sums - 1.0).max() > 1e-12:
            raise OperatorError(f"{name} is not stochastic for these coefficients")
        if low < -1e-12:
            raise OperatorError(f"{name} has negative entries; not doubly stochastic")
    k, r = factor_b2(poly_b2, mix.spectral.eigenvalues)
    return AbcOperator(mix, tuple(poly_a), tuple(poly_b2), tuple(poly_c), z_mode, k, r,
                       method)


def _row_sums_and_min(coeffs: tuple, mix: MixingMatrix) -> tuple[np.ndarray, float]:
    """Row sums and smallest entry of sum_d c_d W^d.

    A polynomial of degree at most 1, c0 I + c1 W, is read off W's nonzeros:
    c1 w_ij off the diagonal and c0 + c1 w_ii on it.  Its entries off W's
    pattern and diagonal are zeros, which pass any sign test, so they need
    no storage.  A higher degree is realized densely.
    """
    if not 1 <= len(coeffs) <= 2:
        M = _poly_matrix(coeffs, mix.w)
        return M.sum(axis=1), M.min()
    c0, c1 = (*coeffs, 0.0)[:2]
    n, rows, vals = mix.n, mix.rows, mix.vals
    off = rows != mix.cols
    diag = np.full(n, float(c0))
    diag[rows[~off]] += c1 * vals[~off]
    entries = np.concatenate((c1 * vals[off], diag))
    row_sums = np.bincount(np.concatenate((rows[off], np.arange(n))), entries, minlength=n)
    return row_sums, float(entries.min())


def gtrr_operator(mix: MixingMatrix) -> AbcOperator:
    """(A, B, C) = (W, I-W, W) with tracker-style reinit each epoch."""
    return build_operator((0.0, 1.0), (1.0, -2.0, 1.0), (0.0, 1.0), mix, "reset", "gtrr")


def edrr_operator(mix: MixingMatrix) -> AbcOperator:
    """(A, B, C) = (W, (I-W)^(1/2), I) with persistent z; needs W PSD."""
    if mix.spectral.lambda_min < -1e-12:
        raise OperatorError(
            f"W has negative eigenvalue {mix.spectral.lambda_min:.3g}; "
            "apply lazify to make it positive definite first"
        )
    return build_operator((0.0, 1.0), (1.0, -1.0), (1.0,), mix, "persist", "edrr")


# ---------------------------------------------------------------------------
# spectral transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformData:
    """Similarity data for the stacked (x, s) recursion off consensus.

    The block map G = V Gamma V^{-1} is kept as the n-1 2x2 blocks of V and
    V^{-1}, block i acting on rows (i, n-1+i) of the stacked 2(n-1) vector;
    nothing here builds the dense 2(n-1)-square matrices.  W's eigendata is
    read from ``spectral``; ``method`` is the operator's (None for a triple
    that no method reproduces), and `algorithms.run` checks it.
    """

    spectral: SpectralInfo
    a_vals: np.ndarray     # a(lambda_i) at lambda_2..lambda_n
    b_vals: np.ndarray     # b(lambda_i), the diagonal of Lambda_b
    V_blocks: np.ndarray   # (n-1, 2, 2)
    Vinv_blocks: np.ndarray
    gamma: float
    norm_V2: float         # ||V||^2, equal to ||V^{-1}||^2 by the balancing
    norm_La2: float        # ||Lambda_a||^2 on the non-consensus spectrum
    method: str | None

    def e_vector(self, X: np.ndarray, S: np.ndarray) -> np.ndarray:
        """e = V^{-1} [Uhat^T x ; Lambda_b^{-1} Uhat^T s], a 2(n-1) x p array."""
        if not len(self.b_vals):
            return np.zeros((0, X.shape[1]))
        p = X.shape[1]
        proj = self.spectral.project(np.concatenate((X, S), axis=1))
        top = proj[:, :p]
        bottom = proj[:, p:] / self.b_vals[:, None]
        Vi = self.Vinv_blocks[:, :, :, None]
        return np.vstack([Vi[:, 0, 0] * top + Vi[:, 0, 1] * bottom,
                          Vi[:, 1, 0] * top + Vi[:, 1, 1] * bottom])


def _row_sq(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a (k, 2) array, summed as the dot product
    `r @ r` sums it (so ties between rows break as a per-block loop's do)."""
    return (rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def _larger_row(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Per block, r1 if its norm is at least r2's, else r2."""
    return np.where((_row_sq(r1) >= _row_sq(r2))[:, None], r1, r2)


def _perp(rows: np.ndarray) -> np.ndarray:
    """Each row rotated by a quarter turn: (x, y) -> (-y, x)."""
    return np.stack([-rows[:, 1], rows[:, 0]], axis=1)


def _block_bases(G: np.ndarray):
    """Canonical (V, radius, defective, cond) of every 2x2 block of G.

    Each block falls in one branch by the sign of its discriminant, and V
    brings it to a canonical Gamma = V^{-1} G V: distinct real eigenvalues
    (unit eigenvectors, diagonal Gamma), a complex pair (a scaled rotation),
    or a repeated eigenvalue (an orthonormal Schur basis, upper triangular
    Gamma; a block that is already scalar keeps V = I).  Every V is then
    balanced so that ||V|| == ||V^{-1}||; both squared equal cond, the ratio
    of V's singular values.
    """
    g00, g01, g10, g11 = G[:, 0, 0], G[:, 0, 1], G[:, 1, 0], G[:, 1, 1]
    tr = g00 + g11
    det = g00 * g11 - g01 * g10
    disc = tr * tr - 4.0 * det
    thresh = 1e-10 * np.maximum(1.0, tr * tr)
    real = disc > thresh
    cplx = disc < -thresh
    defective = ~(real | cplx)
    V = np.empty_like(G)
    radius = np.empty(len(G))

    root = np.sqrt(disc[real])
    zs = (0.5 * (tr[real] + root), 0.5 * (tr[real] - root))
    for col, z in enumerate(zs):
        # rows of (G - zI) are parallel; take the kernel of the larger one
        row = _larger_row(np.stack([g00[real] - z, g01[real]], axis=1),
                          np.stack([g10[real], g11[real] - z], axis=1))
        v = _perp(row)
        V[real, :, col] = v / np.sqrt(_row_sq(v))[:, None]
    radius[real] = np.maximum(np.abs(zs[0]), np.abs(zs[1]))

    # the complex eigenvector (from the second row) split into re/im columns
    sigma = 0.5 * tr[cplx]
    omega = 0.5 * np.sqrt(-disc[cplx])
    V[cplx] = np.stack([np.stack([sigma - g11[cplx], omega], axis=1),
                        np.stack([g10[cplx], np.zeros_like(sigma)], axis=1)], axis=1)
    radius[cplx] = np.hypot(sigma, omega)

    lam_hat = 0.5 * tr[defective]
    M = G[defective] - lam_hat[:, None, None] * np.eye(2)
    row = _larger_row(M[:, 0], M[:, 1])
    nrm = np.sqrt(_row_sq(row))
    scalar = nrm < 1e-14
    idx = np.flatnonzero(defective)
    v = _perp(row[~scalar]) / nrm[~scalar, None]
    V[idx[~scalar]] = np.stack([v, _perp(v)], axis=2)
    V[idx[scalar]] = np.eye(2)
    radius[defective] = np.abs(lam_hat)

    svals = np.linalg.svd(V, compute_uv=False)
    V /= np.sqrt(svals[:, 0] * svals[:, -1])[:, None, None]
    return V, radius, defective, svals[:, 0] / svals[:, -1]


def transform_data(op: AbcOperator) -> TransformData:
    """Assemble the V blocks and the cached norms for an operator.

    Rejects operators whose block spectral radius reaches 1 (non-contractive
    off the consensus span).
    """
    spec = op.mix.spectral
    lam_vals = spec.eigenvalues[1:]
    a_vals = _poly_scalar(op.poly_a, lam_vals)
    b2_vals, b_vals = op.b2_and_b(lam_vals)
    G = np.empty((len(lam_vals), 2, 2))
    G[:, 0, 0] = a_vals * _poly_scalar(op.poly_c, lam_vals) - b2_vals
    G[:, 0, 1] = -b_vals
    G[:, 1, 0] = b_vals
    G[:, 1, 1] = 1.0
    V, radius, defective, cond = _block_bases(G)
    gamma = float(np.max(radius, initial=0.0))
    det = V[:, 0, 0] * V[:, 1, 1] - V[:, 0, 1] * V[:, 1, 0]
    adj = np.empty_like(V)
    adj[:, 0, 0], adj[:, 0, 1] = V[:, 1, 1], -V[:, 0, 1]
    adj[:, 1, 0], adj[:, 1, 1] = -V[:, 1, 0], V[:, 0, 0]
    Vinv = adj / det[:, None, None]
    if defective.any():
        gamma += DEFECTIVE_GUARD
    if len(G) and gamma >= 1.0:
        raise OperatorError(
            f"operator is not contractive off consensus (gamma = {gamma:.6g} >= 1)"
        )
    # a block-diagonal matrix's spectral norm is its largest block's, and
    # balancing made each block's ||V||^2 and ||V^{-1}||^2 its cond
    norm_V2 = float(np.max(cond, initial=1.0))
    return TransformData(
        spectral=spec, a_vals=a_vals, b_vals=b_vals, V_blocks=V, Vinv_blocks=Vinv,
        gamma=gamma, norm_V2=norm_V2,
        norm_La2=float(np.max(a_vals ** 2, initial=0.0)), method=op.method,
    )


# ---------------------------------------------------------------------------
# engines (cross-implementation oracles)
# ---------------------------------------------------------------------------


class AbcEngine(_Method):
    """Drives the two-variable (x, z) epoch update for any valid operator."""

    name = "abc"

    def __init__(self, op: AbcOperator, objective: FiniteSumObjective,
                 stream: PermutationStream):
        super().__init__(objective, op.mix, stream)
        self.op = op

    def reset(self, X0):
        super().reset(X0)
        self.Z = None

    def _epoch_start_z(self):
        if self.op.z_mode == "reset":
            return -(self.W @ self.X)
        return self.Z if self.Z is not None else np.zeros_like(self.X)

    def _start_epoch(self, alpha):
        self.Z = self._epoch_start_z()

    def _step(self, ell, alpha, g):
        op = self.op
        self.X = op.A @ (op.C @ self.X - alpha * g) - op.B @ self.Z
        self.Z = self.Z + op.B @ self.X

    def abc_state(self, alpha):
        Z = self._epoch_start_z()
        xbar = self.X.mean(axis=0)
        Gc = self.obj.grads_at_consensus(xbar)
        S = self.op.B @ Z - self.op.B2 @ self.X + alpha * (self.op.A @ Gc)
        return self.X, S


class TransformedEngine(_Method):
    """Drives the (x, s) recursion; s is re-anchored at each epoch start from
    its definition (which swaps the alpha A grad_F(1 xbar^T) term for the new
    epoch while the underlying z state carries over unchanged)."""

    name = "abc-transformed"

    def __init__(self, op: AbcOperator, objective: FiniteSumObjective,
                 stream: PermutationStream):
        super().__init__(objective, op.mix, stream)
        self.op = op
        self.M = op.A @ op.C - op.B2

    def reset(self, X0):
        super().reset(X0)
        self.S = None
        self._anchor = None

    def _anchored_s(self, alpha):
        xbar = self.X.mean(axis=0)
        Gc = self.obj.grads_at_consensus(xbar)
        AGc = self.op.A @ Gc
        anchor = alpha * AGc
        if self.op.z_mode == "reset":
            h = -(self.W @ self.X)
            S = self.op.B @ h - self.op.B2 @ self.X + anchor
        elif self.S is None:
            S = -self.op.B2 @ self.X + anchor
        else:
            S = self.S - self._anchor + anchor
        return S, anchor, AGc

    def _start_epoch(self, alpha):
        self.S, self._anchor, self._AGc = self._anchored_s(alpha)

    def _step(self, ell, alpha, g):
        X_new = self.M @ self.X - alpha * (self.op.A @ g) + alpha * self._AGc - self.S
        self.S = self.S + self.op.B2 @ self.X
        self.X = X_new

    def abc_state(self, alpha):
        S, _, _ = self._anchored_s(alpha)
        return self.X, S
