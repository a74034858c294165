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

from dataclasses import dataclass

import numpy as np

from .algorithms import ProbeInfo
from .objective import FiniteSumObjective
from .shuffling import PermutationStream
from .topology import MixingMatrix, psd_sqrt

DEFECTIVE_GUARD = 1e-12
_B2_NEG_TOL = 1e-12
_NULL_TOL = 1e-12


class OperatorError(ValueError):
    """Polynomial triple violates the standing structural assumptions."""


def _poly_matrix(coeffs, W: np.ndarray) -> np.ndarray:
    """Evaluate sum_d c_d W^d by Horner's rule in the matrix argument."""
    n = W.shape[0]
    out = np.zeros((n, n))
    for c in reversed(list(coeffs)):
        out = out @ W
        out[np.diag_indices(n)] += c
    return out


def _poly_scalar(coeffs, x):
    out = np.zeros_like(np.asarray(x, dtype=float))
    for c in reversed(list(coeffs)):
        out = out * x + c
    return out


@dataclass(frozen=True)
class AbcOperator:
    """Realized (A, B, C) triple over a mixing matrix.

    z_mode 'reset' reapplies z = -W x at every epoch start; 'persist' starts
    z at zero once and carries it across epochs.
    """

    mix: MixingMatrix
    poly_a: tuple
    poly_b2: tuple
    poly_c: tuple
    A: np.ndarray
    B: np.ndarray
    B2: np.ndarray
    C: np.ndarray
    z_mode: str

    @property
    def n(self):
        return self.mix.n


def build_operator(poly_a, poly_b2, poly_c, mix: MixingMatrix,
                   z_mode: str = "persist") -> AbcOperator:
    """Realize and validate an operator triple from polynomial coefficients."""
    if z_mode not in ("reset", "persist"):
        raise OperatorError("z_mode must be 'reset' or 'persist'")
    W = mix.w
    n = mix.n
    A = _poly_matrix(poly_a, W)
    B2 = _poly_matrix(poly_b2, W)
    C = _poly_matrix(poly_c, W)
    for name, M in (("A", A), ("C", C)):
        if np.abs(M.sum(axis=1) - 1.0).max() > 1e-12:
            raise OperatorError(f"{name} is not stochastic for these coefficients")
        if M.min() < -1e-12:
            raise OperatorError(f"{name} has negative entries; not doubly stochastic")
    eigvals = mix.spectral.eigenvalues
    b2_at = _poly_scalar(poly_b2, eigvals)
    if abs(_poly_scalar(poly_b2, 1.0)) > _B2_NEG_TOL:
        raise OperatorError("B must vanish on consensus: the b-polynomial at 1 is nonzero")
    if b2_at.min() < -_B2_NEG_TOL:
        raise OperatorError(f"B^2 has negative eigenvalue {b2_at.min():.3g}")
    non_consensus = eigvals < 1.0 - 1e-12
    if np.any(non_consensus) and b2_at[non_consensus].min() <= _NULL_TOL:
        raise OperatorError(
            "the null space of B exceeds the consensus span "
            "(b-polynomial vanishes at an eigenvalue below 1)"
        )
    B = psd_sqrt(B2)
    return AbcOperator(mix, tuple(poly_a), tuple(poly_b2), tuple(poly_c),
                       A, B, B2, C, z_mode)


def gtrr_operator(mix: MixingMatrix) -> AbcOperator:
    """(A, B, C) = (W, I-W, W) with tracker-style reinit each epoch."""
    return build_operator((0.0, 1.0), (1.0, -2.0, 1.0), (0.0, 1.0), mix, "reset")


def edrr_operator(mix: MixingMatrix) -> AbcOperator:
    """(A, B, C) = (W, (I-W)^(1/2), I) with persistent z; needs W PSD."""
    if mix.spectral.lambda_min < -1e-12:
        raise OperatorError(
            f"W has negative eigenvalue {mix.spectral.lambda_min:.3g}; "
            "apply lazify to make it positive definite first"
        )
    return build_operator((0.0, 1.0), (1.0, -1.0), (1.0,), mix, "persist")


# ---------------------------------------------------------------------------
# spectral transform
# ---------------------------------------------------------------------------


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """Dense 2k-square matrix whose block i sits on rows and columns (i, k+i)."""
    k = blocks.shape[0]
    out = np.zeros((2 * k, 2 * k))
    diag = np.arange(k)
    for r in range(2):
        for c in range(2):
            out[r * k + diag, c * k + diag] = blocks[:, r, c]
    return out


@dataclass(frozen=True)
class TransformData:
    """Similarity data for the stacked (x, s) recursion off consensus.

    The block map G = V Gamma V^{-1} is kept as its n-1 2x2 blocks, block i
    acting on rows (i, n-1+i) of the stacked 2(n-1) vector; the dense
    matrices are built only when the G, V, Vinv and Gamma properties are read.
    """

    n: int
    uhat: np.ndarray
    lam_vals: np.ndarray   # eigenvalues lambda_2..lambda_n of W
    a_vals: np.ndarray
    b_vals: np.ndarray
    c_vals: np.ndarray
    G_blocks: np.ndarray   # (n-1, 2, 2)
    V_blocks: np.ndarray
    Vinv_blocks: np.ndarray
    Gamma_blocks: np.ndarray
    gamma: float
    norm_V2: float
    norm_Vinv2: float
    norm_La2: float        # ||Lambda_a||^2 on the non-consensus spectrum
    norm_Lb_inv2: float    # ||Lambda_b^{-1}||^2
    lam: float             # spectral norm of W - 11^T/n
    lambda_min: float      # smallest eigenvalue of W
    any_defective: bool

    @property
    def G(self) -> np.ndarray:
        return _block_diag(self.G_blocks)

    @property
    def V(self) -> np.ndarray:
        return _block_diag(self.V_blocks)

    @property
    def Vinv(self) -> np.ndarray:
        return _block_diag(self.Vinv_blocks)

    @property
    def Gamma(self) -> np.ndarray:
        return _block_diag(self.Gamma_blocks)

    def e_vector(self, X: np.ndarray, S: np.ndarray) -> np.ndarray:
        """e = V^{-1} [Uhat^T x ; Lambda_b^{-1} Uhat^T s], a 2(n-1) x p array."""
        if self.n == 1:
            return np.zeros((0, X.shape[1]))
        top = self.uhat.T @ X
        bottom = (self.uhat.T @ S) / self.b_vals[:, None]
        Vi = self.Vinv_blocks[:, :, :, None]
        return np.vstack([Vi[:, 0, 0] * top + Vi[:, 0, 1] * bottom,
                          Vi[:, 1, 0] * top + Vi[:, 1, 1] * bottom])

    def consensus_bound(self, e: np.ndarray) -> float:
        return self.norm_V2 * float(np.sum(e * e))


def _block_basis(G2: np.ndarray):
    """Canonical (V, Gamma, radius, defective) for one 2x2 block."""
    tr = G2[0, 0] + G2[1, 1]
    det = G2[0, 0] * G2[1, 1] - G2[0, 1] * G2[1, 0]
    disc = tr * tr - 4.0 * det
    thresh = 1e-10 * max(1.0, tr * tr)

    def eigvec(z):
        # rows of (G - zI) are parallel; take the kernel of the larger one
        r1 = np.array([G2[0, 0] - z, G2[0, 1]])
        r2 = np.array([G2[1, 0], G2[1, 1] - z])
        row = r1 if r1 @ r1 >= r2 @ r2 else r2
        v = np.array([-row[1], row[0]])
        return v / np.linalg.norm(v)

    if disc > thresh:
        zp = 0.5 * (tr + np.sqrt(disc))
        zm = 0.5 * (tr - np.sqrt(disc))
        V = np.column_stack([eigvec(zp), eigvec(zm)])
        Gamma = np.diag([zp, zm])
        radius = max(abs(zp), abs(zm))
        defective = False
    elif disc < -thresh:
        sigma = 0.5 * tr
        omega = 0.5 * np.sqrt(-disc)
        # complex eigenvector (from the second row) split into re/im columns
        u = np.array([sigma - G2[1, 1], G2[1, 0]])
        v = np.array([omega, 0.0])
        V = np.column_stack([u, v])
        Gamma = np.array([[sigma, omega], [-omega, sigma]])
        radius = float(np.hypot(sigma, omega))
        defective = False
    else:
        lam_hat = 0.5 * tr
        M = G2 - lam_hat * np.eye(2)
        r1, r2 = M[0], M[1]
        row = r1 if r1 @ r1 >= r2 @ r2 else r2
        nrm = np.linalg.norm(row)
        if nrm < 1e-14:  # block already scalar
            V = np.eye(2)
            Gamma = G2.copy()
        else:
            v = np.array([-row[1], row[0]]) / nrm
            w = np.array([-v[1], v[0]])
            V = np.column_stack([v, w])
            Gamma = V.T @ G2 @ V
        radius = abs(lam_hat)
        defective = True

    svals = np.linalg.svd(V, compute_uv=False)
    V = V / np.sqrt(svals[0] * svals[-1])  # balance: ||V|| == ||V^{-1}||
    return V, Gamma, float(radius), defective


def transform_data(op: AbcOperator) -> TransformData:
    """Assemble the V and Gamma blocks and the cached norms for an operator.

    Rejects operators whose block spectral radius reaches 1 (non-contractive
    off the consensus span).
    """
    spec = op.mix.spectral
    n = op.n
    lam_vals = spec.eigenvalues[1:]
    a_vals = _poly_scalar(op.poly_a, lam_vals)
    b2_vals = np.clip(_poly_scalar(op.poly_b2, lam_vals), 0.0, None)
    b_vals = np.sqrt(b2_vals)
    c_vals = _poly_scalar(op.poly_c, lam_vals)
    k = n - 1
    G = np.empty((k, 2, 2))
    G[:, 0, 0] = a_vals * c_vals - b2_vals
    G[:, 0, 1] = -b_vals
    G[:, 1, 0] = b_vals
    G[:, 1, 1] = 1.0
    V = np.empty((k, 2, 2))
    Gamma = np.empty((k, 2, 2))
    gamma = 0.0
    any_defective = False
    for i in range(k):
        V[i], Gamma[i], radius, defective = _block_basis(G[i])
        any_defective = any_defective or defective
        gamma = max(gamma, radius)
    det = V[:, 0, 0] * V[:, 1, 1] - V[:, 0, 1] * V[:, 1, 0]
    adj = np.empty_like(V)
    adj[:, 0, 0], adj[:, 0, 1] = V[:, 1, 1], -V[:, 0, 1]
    adj[:, 1, 0], adj[:, 1, 1] = -V[:, 1, 0], V[:, 0, 0]
    Vinv = adj / det[:, None, None]
    if any_defective:
        gamma += DEFECTIVE_GUARD
    if k > 0 and gamma >= 1.0:
        raise OperatorError(
            f"operator is not contractive off consensus (gamma = {gamma:.6g} >= 1)"
        )
    # a block-diagonal matrix's spectral norm is its largest block's
    norm_V2 = float(np.linalg.norm(V, 2, axis=(1, 2)).max() ** 2) if k else 1.0
    norm_Vinv2 = float(np.linalg.norm(Vinv, 2, axis=(1, 2)).max() ** 2) if k else 1.0
    return TransformData(
        n=n, uhat=spec.uhat, lam_vals=lam_vals, a_vals=a_vals, b_vals=b_vals,
        c_vals=c_vals, G_blocks=G, V_blocks=V, Vinv_blocks=Vinv, Gamma_blocks=Gamma,
        gamma=float(gamma), norm_V2=norm_V2, norm_Vinv2=norm_Vinv2,
        norm_La2=float(np.max(a_vals ** 2)) if k else 0.0,
        norm_Lb_inv2=float(np.max(1.0 / b2_vals)) if k else 0.0,
        lam=spec.lam, lambda_min=spec.lambda_min, any_defective=any_defective,
    )


# ---------------------------------------------------------------------------
# engines (cross-implementation oracles)
# ---------------------------------------------------------------------------


class AbcEngine:
    """Drives the two-variable (x, z) epoch update for any valid operator."""

    name = "abc"
    uses_rr = True

    def __init__(self, op: AbcOperator, objective: FiniteSumObjective,
                 stream: PermutationStream):
        if objective.n != op.n:
            raise ValueError("objective and operator disagree on n")
        if stream.mode == "iid":
            raise ValueError("the unified engines use rr or once sampling")
        self.op = op
        self.obj = objective
        self.stream = stream
        self.n, self.m, self.p = objective.n, objective.m, objective.p
        self.X = None
        self.Z = None

    def reset(self, X0):
        self.X = np.array(X0, dtype=float)
        self.Z = None

    def _epoch_start_z(self):
        if self.op.z_mode == "reset":
            return -(self.op.mix.w @ self.X)
        return self.Z if self.Z is not None else np.zeros_like(self.X)

    def epoch(self, t, alpha, probe=None):
        op = self.op
        self.Z = self._epoch_start_z()
        orders = self.stream.epoch_orders(self.n, t, self.m)
        for ell in range(self.m):
            g = self.obj.perm_grads(self.X, orders[:, ell])
            Xb = self.X
            self.X = op.A @ (op.C @ self.X - alpha * g) - op.B @ self.Z
            self.Z = self.Z + op.B @ self.X
            if probe is not None:
                probe(ProbeInfo(t, ell, alpha, Xb, self.X, g))

    def abc_state(self, alpha):
        Z = self._epoch_start_z()
        xbar = self.X.mean(axis=0)
        Gc = self.obj.grads_at_consensus(xbar)
        S = self.op.B @ Z - self.op.B2 @ self.X + alpha * (self.op.A @ Gc)
        return self.X, S


class TransformedEngine:
    """Drives the (x, s) recursion; s is re-anchored at each epoch start from
    its definition (which swaps the alpha A grad_F(1 xbar^T) term for the new
    epoch while the underlying z state carries over unchanged)."""

    name = "abc-transformed"
    uses_rr = True

    def __init__(self, op: AbcOperator, objective: FiniteSumObjective,
                 stream: PermutationStream):
        if objective.n != op.n:
            raise ValueError("objective and operator disagree on n")
        if stream.mode == "iid":
            raise ValueError("the unified engines use rr or once sampling")
        self.op = op
        self.obj = objective
        self.stream = stream
        self.n, self.m, self.p = objective.n, objective.m, objective.p
        self.M = op.A @ op.C - op.B2
        self.X = None
        self.S = None
        self._anchor = None

    def reset(self, X0):
        self.X = np.array(X0, dtype=float)
        self.S = None
        self._anchor = None

    def _anchored_s(self, alpha):
        xbar = self.X.mean(axis=0)
        Gc = self.obj.grads_at_consensus(xbar)
        AGc = self.op.A @ Gc
        anchor = alpha * AGc
        if self.op.z_mode == "reset":
            h = -(self.op.mix.w @ self.X)
            S = self.op.B @ h - self.op.B2 @ self.X + anchor
        elif self.S is None:
            S = -self.op.B2 @ self.X + anchor
        else:
            S = self.S - self._anchor + anchor
        return S, anchor, AGc

    def epoch(self, t, alpha, probe=None):
        self.S, self._anchor, AGc = self._anchored_s(alpha)
        orders = self.stream.epoch_orders(self.n, t, self.m)
        for ell in range(self.m):
            g = self.obj.perm_grads(self.X, orders[:, ell])
            Xb = self.X
            X_new = self.M @ self.X - alpha * (self.op.A @ g) + alpha * AGc - self.S
            self.S = self.S + self.op.B2 @ self.X
            self.X = X_new
            if probe is not None:
                probe(ProbeInfo(t, ell, alpha, Xb, self.X, g))

    def abc_state(self, alpha):
        S, _, _ = self._anchored_s(alpha)
        return self.X, S
