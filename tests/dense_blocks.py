"""Dense forms of the spectral transform's 2x2 blocks, a per-block
reference for their canonical bases, and the consensus bound they give, for
checks only."""

import numpy as np


def block_diag(blocks: np.ndarray) -> np.ndarray:
    """Dense 2k-square matrix whose block i sits on rows and columns (i, k+i)."""
    k = blocks.shape[0]
    out = np.zeros((2 * k, 2 * k))
    diag = np.arange(k)
    for r in range(2):
        for c in range(2):
            out[r * k + diag, c * k + diag] = blocks[:, r, c]
    return out


def block_basis(G2: np.ndarray):
    """Canonical (V, Gamma, radius, defective) for one 2x2 block: the
    per-block reference for `unified._block_bases`."""
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


def consensus_bound(td, e: np.ndarray) -> float:
    """||V||^2 ||e||^2, an upper bound on the consensus error ||x - 1 xbar^T||^2."""
    return td.norm_V2 * float(np.sum(e * e))
