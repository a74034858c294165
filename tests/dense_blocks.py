"""Dense forms of the spectral transform's 2x2 blocks, a per-block
reference for their canonical bases, the canonical forms those bases give,
and the consensus bound, for checks only."""

import numpy as np

from netshuffle.unified import _poly_scalar


def block_diag(blocks: np.ndarray) -> np.ndarray:
    """Dense 2k-square matrix whose block i sits on rows and columns (i, k+i)."""
    k = blocks.shape[0]
    out = np.zeros((2 * k, 2 * k))
    diag = np.arange(k)
    for r in range(2):
        for c in range(2):
            out[r * k + diag, c * k + diag] = blocks[:, r, c]
    return out


def block_map(op) -> np.ndarray:
    """The (n-1, 2, 2) blocks G = [[a c - b^2, -b], [b, 1]] of the stacked
    (x, s) recursion, from `op`'s polynomials at W's eigenvalues below the
    consensus one."""
    lam = op.mix.spectral.eigenvalues[1:]
    b2, b = op.b2_and_b(lam)
    G = np.empty((len(lam), 2, 2))
    G[:, 0, 0] = _poly_scalar(op.poly_a, lam) * _poly_scalar(op.poly_c, lam) - b2
    G[:, 0, 1] = -b
    G[:, 1, 0] = b
    G[:, 1, 1] = 1.0
    return G


def canonical_gamma(G, V, radius, defective, cond) -> np.ndarray:
    """Gamma = V^{-1} G V per block, checked to be in its branch's canonical
    form with spectral radius `radius`: diagonal for distinct real
    eigenvalues, a scaled rotation for a complex pair, upper triangular for a
    repeated eigenvalue.

    The tolerance is round-off grown by V's condition number and by the
    inverse of the eigenvalue split sep = sqrt(|disc|), to which the basis
    vectors are sensitive; disc is a difference of terms of size tr^2, so sep
    is floored by their round-off.  A block taken as repeated may still have
    eigenvalues sep apart (its threshold is relative), and its Schur vector
    is then off by up to half that.
    """
    Gamma = np.linalg.inv(V) @ G @ V
    g00, g01, g10, g11 = (Gamma[:, r, c] for r in range(2) for c in range(2))
    tr = G[:, 0, 0] + G[:, 1, 1]
    disc = tr * tr - 4.0 * (G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0])
    sep = np.sqrt(np.abs(disc) + 1e-14 * np.maximum(1.0, tr * tr))
    scale = np.maximum(1.0, np.abs(G).max(axis=(1, 2)))
    tol = 1e-14 * cond * scale * (1.0 + scale / sep) + np.where(defective, 0.5 * sep, 0.0)
    cplx = ~defective & (disc < 0)
    assert np.all(np.abs(np.where(cplx, g00 - g11, g10)) <= tol)
    assert np.all(np.abs(np.where(cplx, g01 + g10, 0.0)) <= tol)
    assert np.all(np.abs(np.where(defective | cplx, 0.0, g01)) <= tol)
    rho = np.where(cplx, np.hypot(g00, g01), np.maximum(np.abs(g00), np.abs(g11)))
    assert np.all(np.abs(rho - radius) <= tol)
    return Gamma


def block_basis(G2: np.ndarray):
    """Canonical (V, radius, defective) for one 2x2 block: the per-block
    reference for `unified._block_bases`."""
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
        radius = max(abs(zp), abs(zm))
        defective = False
    elif disc < -thresh:
        sigma = 0.5 * tr
        omega = 0.5 * np.sqrt(-disc)
        # complex eigenvector (from the second row) split into re/im columns
        u = np.array([sigma - G2[1, 1], G2[1, 0]])
        v = np.array([omega, 0.0])
        V = np.column_stack([u, v])
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
        else:
            v = np.array([-row[1], row[0]]) / nrm
            w = np.array([-v[1], v[0]])
            V = np.column_stack([v, w])
        radius = abs(lam_hat)
        defective = True

    svals = np.linalg.svd(V, compute_uv=False)
    V = V / np.sqrt(svals[0] * svals[-1])  # balance: ||V|| == ||V^{-1}||
    return V, float(radius), defective


def consensus_bound(td, e: np.ndarray) -> float:
    """||V||^2 ||e||^2, an upper bound on the consensus error ||x - 1 xbar^T||^2."""
    return td.norm_V2 * float(np.sum(e * e))
