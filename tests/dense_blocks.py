"""Dense forms of the spectral transform's 2x2 blocks, for checks only."""

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
