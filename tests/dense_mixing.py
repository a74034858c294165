"""The dense n x n construction of mixing matrices, kept as a reference for
the nonzero-entry one in `netshuffle.topology`: Metropolis weights, lazify,
the neighbour gather, the circulant test and spectrum, and the input checks,
each written against the full matrix."""

import math

import numpy as np
from numpy.fft import rfft

from netshuffle.topology import SYM_TOL, STOCH_TOL, TopologyError, _connected


def metropolis(g) -> np.ndarray:
    n = g.n
    w = np.zeros((n, n))
    deg = [0] * n
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    incident = [[] for _ in range(n)]
    for i, j in g.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
        incident[i].append(w[i, j])
        incident[j].append(w[i, j])
    for i in range(n):
        w[i, i] = 1.0 - math.fsum(incident[i])
    return w


def lazify(w: np.ndarray, tau: float) -> np.ndarray:
    return (1.0 - tau) * w + tau * np.eye(len(w))


def gather(w: np.ndarray) -> tuple:
    """`NeighborGather`'s (idx, wt) read off the dense matrix."""
    n = w.shape[0]
    counts = np.count_nonzero(w, axis=1)
    rows, cols = np.nonzero(w)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    per_row = int(counts.max())
    idx = np.repeat(np.arange(n)[:, None], per_row, axis=1)
    wt = np.zeros((n, per_row))
    idx[rows, slot] = cols
    wt[rows, slot] = w[rows, cols]
    return idx, wt


def is_symmetric_circulant(w: np.ndarray) -> bool:
    n = w.shape[0]
    row = w[0]
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((row, row)), n)
    return bool(np.array_equal(row[1:], row[:0:-1])
                and np.array_equal(w, windows[n:0:-1]))


def spectrum(w: np.ndarray) -> tuple:
    """(eigenvalues, modes) as the dense spectral path computes them: the
    rfft of row 0 on a symmetric circulant (modes the Fourier mode of each),
    else a descending `eigh` (modes None)."""
    n = w.shape[0]
    if is_symmetric_circulant(w):
        vals = rfft(w[0]).real[(np.arange(n) + 1) // 2]
        modes = np.concatenate(([0], 1 + np.argsort(-vals[1:], kind="stable")))
        return vals[modes], modes
    vals = np.linalg.eigh(w)[0]
    return vals[np.argsort(vals)[::-1]], None


def check(w: np.ndarray) -> None:
    """The checks a dense mixing matrix passed, with their messages."""
    n = w.shape[0]
    asym = float(np.max(np.abs(w - w.T))) if n else 0.0
    if asym > SYM_TOL:
        raise TopologyError(f"matrix is asymmetric beyond {SYM_TOL:g} (got {asym:.3g})")
    row = np.abs(w.sum(axis=1) - 1.0).max()
    if row > STOCH_TOL:
        raise TopologyError(f"rows must sum to 1 within {STOCH_TOL:g} (off by {row:.3g})")
    if w.min() < -1e-12:
        raise TopologyError(f"negative weight {w.min():.3g}")
    if not _connected(n, zip(*np.nonzero(np.triu(w > 0, k=1)))):
        raise TopologyError("positivity pattern of W is not connected")
