"""Communication graphs, mixing matrices, and their spectral data.

Mixing matrices are symmetric, doubly stochastic, and nonnegative, with a
positive entry exactly on graph edges and on the diagonal.  All algorithms
downstream consume ``MixingMatrix`` plus the cached ``SpectralInfo``, and mix
through its ``operator``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from numpy.fft import rfft

SYM_TOL = 1e-12
STOCH_TOL = 1e-12
PSD_TOL = 1e-12

# `MixingMatrix.operator` gathers over neighbours instead of multiplying by
# the dense W once n >= GATHER_MIN_N and n >= GATHER_PER_ROW * (the most
# nonzeros in a row); below that the dense product is faster (crossover
# measured with one BLAS thread, see README)
GATHER_MIN_N = 256
GATHER_PER_ROW = 32

# `SpectralInfo.project` multiplies by the dense Uhat^T on a circulant W too
# while n^2 times M's column count is at most this; above it one rfft is
# faster (crossover measured with one BLAS thread, see README)
DENSE_PROJECT_WORK = 2 ** 18

# the `kind[:arg]` specs `build_graph` takes
GRAPH_SPECS = ("ring", "grid:RxC", "complete", "star", "custom:<edge-file>")


class TopologyError(ValueError):
    """Invalid graph or mixing-matrix input."""


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on agents 0..n-1; self-loops are implicit."""

    n: int
    edges: frozenset
    kind: str = "custom"

    def __post_init__(self):
        if self.n < 1:
            raise TopologyError(f"need at least one agent, got n={self.n}")
        for i, j in self.edges:
            if i == j:
                raise TopologyError("self-loops are implicit, do not list them")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise TopologyError(f"edge ({i},{j}) out of range for n={self.n}")
        if not _connected(self.n, self.edges):
            raise TopologyError(
                f"{self.kind} graph on {self.n} nodes with {len(self.edges)} "
                "edges is not connected"
            )


def _normalize_edges(edges: Iterable) -> frozenset:
    return frozenset((min(i, j), max(i, j)) for i, j in edges if i != j)


def _connected(n: int, edges) -> bool:
    if n == 1:
        return True
    adj = {i: set() for i in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == n


def build_graph(spec: str, n: int | None = None, edges=None) -> Graph:
    """The graph a spec `kind[:arg]` names: ring, complete, star (hub at node
    0), grid:RxC (R rows by C columns without wraparound; n, when given, must
    equal R * C) or custom (n and `edges`, or custom:<edge-file>, see
    `read_edge_file`).  The other kinds take no argument.  Every fault is a
    TopologyError.
    """
    kind, colon, arg = spec.partition(":")
    if kind == "grid":
        try:
            rows, cols = (int(v) for v in arg.lower().split("x"))
        except ValueError:
            raise TopologyError(f"grid needs RxC, got {arg!r}") from None
        if rows < 1 or cols < 1:
            raise TopologyError("grid needs rows, cols >= 1")
        if n is not None and rows * cols != n:
            raise TopologyError(f"grid {rows}x{cols} disagrees with n={n}")
        n = rows * cols
        edges = [(u, u + 1) for u in range(n) if (u + 1) % cols]
        edges += [(u, u + cols) for u in range(n - cols)]
    elif n is None:
        raise TopologyError(f"{kind} graph needs n")
    elif kind == "custom":
        if colon:
            edges = read_edge_file(arg)
        if edges is None:
            raise TopologyError("custom graph needs an edge list")
    elif kind == "ring":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "complete":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    else:
        raise TopologyError(f"unknown graph kind {kind!r}; choose from "
                            f"{', '.join(GRAPH_SPECS)}")
    if colon and kind not in ("grid", "custom"):
        raise TopologyError(f"{kind} takes no argument, got {spec}")
    return Graph(n, _normalize_edges(edges), kind=kind)


def read_edge_file(path) -> list:
    """Edge file: one 'i j' pair per line, 0-indexed; '#' starts a comment."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise TopologyError(f"cannot read edge file {path!r}: {exc.strerror}") from None
    edges = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            i, j = (int(v) for v in line.split())
        except ValueError:
            raise TopologyError(f"bad edge line {line!r} in {path}") from None
        edges.append((i, j))
    return edges


@dataclass(frozen=True)
class SpectralInfo:
    """Eigendata of a mixing matrix.

    ``eigenvalues`` is descending with the leading value 1.  ``lam`` is the
    spectral norm of W - 11^T/n, i.e. max(|lambda_2|, |lambda_n|); ``gap`` is
    1 - lam.  ``lambda_min`` is the smallest eigenvalue of W itself (the
    quantity the exact-diffusion rate constants call for; it is positive exactly
    when W is positive definite).  ``eigvecs`` is an orthonormal basis whose
    first column is exactly 1/sqrt(n); ``uhat`` is the remaining n-1 columns,
    and ``project(M)`` is Uhat^T M.

    On a symmetric circulant W (ring, lazified ring, complete graph) the basis
    is the real Fourier basis: ``modes`` names the Fourier mode of each
    eigenvalue (see `_fourier_modes`), ``eigvecs`` is built on its first
    read, and ``project`` takes one rfft above `DENSE_PROJECT_WORK`.
    Elsewhere ``modes`` is None and the basis comes from a dense ``eigh``.
    """

    eigenvalues: np.ndarray
    lam: float
    gap: float
    lambda_min: float
    modes: np.ndarray | None = None
    dense_vecs: np.ndarray | None = field(default=None, repr=False)

    @functools.cached_property
    def eigvecs(self) -> np.ndarray:
        if self.modes is None:
            return self.dense_vecs
        n = len(self.modes)
        freq, sine, scale = _fourier_modes(self.modes, n)
        # j*k reduced mod n before scaling keeps every angle in [0, 2 pi)
        angle = (2.0 * np.pi / n) * (np.outer(np.arange(n), freq) % n)
        return np.where(sine, np.sin(angle), np.cos(angle)) * scale

    @property
    def uhat(self) -> np.ndarray:
        return self.eigvecs[:, 1:]

    def project(self, M: np.ndarray) -> np.ndarray:
        """Uhat^T M for an (n, p) array M."""
        if self.modes is None or M.shape[0] ** 2 * M.shape[1] <= DENSE_PROJECT_WORK:
            return self.uhat.T @ M
        freq, part, weight = self._rfft_rows
        F = np.ascontiguousarray(rfft(M, axis=0))
        # (n//2 + 1, p, 2): the real and imaginary part of each coefficient
        parts = F.view(float).reshape(len(F), -1, 2)
        return parts[freq, :, part] * weight[:, None]

    @functools.cached_property
    def _rfft_rows(self):
        # row r of Uhat^T M is weight[r] times part[r] (0 real, 1 imaginary)
        # of the rfft coefficient at freq[r]: sum_j M_j cos(2 pi j k / n) is
        # its real part and sum_j M_j sin(2 pi j k / n) minus its imaginary part
        freq, sine, scale = _fourier_modes(self.modes[1:], len(self.modes))
        return freq, sine.astype(np.intp), np.where(sine, -scale, scale)


def _fourier_modes(modes: np.ndarray, n: int):
    """Frequency, sine flag and normalizing factor of each real Fourier mode
    of R^n.

    Mode 0 is the constant vector; mode i >= 1 is the cosine (i odd) or sine
    (i even) at frequency k = (i + 1) // 2, so at even n the last mode, n - 1,
    is the alternating cosine at k = n/2.  Modes at k = 0 and k = n/2 have norm
    sqrt(n) before scaling, the rest sqrt(n/2).
    """
    freq = (modes + 1) // 2
    sine = (modes % 2 == 0) & (modes > 0)
    single = (freq == 0) | (2 * freq == n)
    scale = np.where(single, 1.0 / np.sqrt(n), np.sqrt(2.0 / n))
    return freq, sine, scale


def _nonzeros(w: np.ndarray) -> tuple:
    """(rows, cols, vals) of a dense matrix's nonzeros, in np.nonzero order."""
    rows, cols = np.nonzero(w)
    return rows, cols, w[rows, cols]


def _sorted_entries(n: int, rows, cols, vals) -> tuple:
    """The nonzero entries among (rows, cols, vals), in np.nonzero order."""
    order = np.argsort(rows * n + cols)
    order = order[vals[order] != 0.0]
    return rows[order], cols[order], vals[order]


def _circulant_row(n: int, rows, cols, vals) -> np.ndarray | None:
    """Row 0 of W, dense, when W is exactly a symmetric circulant
    (W[i, j] == W[0, (j - i) mod n] and W[0, k] == W[0, n - k]); else None.

    Every row must hold as many nonzeros as row 0, at the same offsets
    (cols - i) mod n and with the same values.
    """
    per_row, rest = divmod(len(vals), n)
    if rest or np.any(np.bincount(rows, minlength=n) != per_row):
        return None
    offsets = ((cols - rows) % n).reshape(n, per_row)
    order = np.argsort(offsets, axis=1)
    offsets = np.take_along_axis(offsets, order, axis=1)
    values = np.take_along_axis(vals.reshape(n, per_row), order, axis=1)
    if not (np.array_equal(offsets, np.broadcast_to(offsets[0], offsets.shape))
            and np.array_equal(values, np.broadcast_to(values[0], values.shape))):
        return None
    row = np.zeros(n)
    row[cols[:per_row]] = vals[:per_row]
    return row if np.array_equal(row[1:], row[:0:-1]) else None


class MixingMatrix:
    """Symmetric doubly stochastic weight matrix with cached spectral data.

    W is kept as its nonzeros ``rows``, ``cols``, ``vals``, in the order
    ``np.nonzero`` gives (row-major, columns ascending); the dense ``w`` is
    built on its first read, so a sparse graph never holds an n x n array
    unless something asks for one.  A dense input is converted on the way
    in; dense and entry input pass the same checks.
    """

    def __init__(self, w: np.ndarray):
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise TopologyError("mixing matrix must be square")
        self._set_entries(w.shape[0], *_nonzeros(w))

    @classmethod
    def from_entries(cls, n: int, rows: np.ndarray, cols: np.ndarray,
                     vals: np.ndarray, connected: bool = False) -> MixingMatrix:
        """W from its nonzero entries, in np.nonzero order; `connected` (the
        positivity pattern is known to be connected) skips only that search."""
        mix = cls.__new__(cls)
        mix._set_entries(n, rows, cols, vals, connected)
        return mix

    def _set_entries(self, n, rows, cols, vals, connected: bool = False):
        """Check and keep W's entries (see `from_entries`)."""
        if n < 1:
            raise TopologyError(f"need at least one agent, got n={n}")
        if not np.all(np.isfinite(vals)):
            raise TopologyError("weights must be finite")
        # |w_ij - w_ji| over the nonzeros, where an absent mirror entry is 0,
        # is the largest entry of |W - W^T|
        key, mirror_key = rows * n + cols, cols * n + rows
        pos = np.minimum(np.searchsorted(key, mirror_key), len(key) - 1)
        mirror = np.where(key[pos] == mirror_key, vals[pos], 0.0)
        asym = float(np.max(np.abs(vals - mirror), initial=0.0))
        if asym > SYM_TOL:
            raise TopologyError(f"matrix is asymmetric beyond {SYM_TOL:g} (got {asym:.3g})")
        row = np.abs(np.bincount(rows, vals, minlength=n) - 1.0).max(initial=0.0)
        if row > STOCH_TOL:
            raise TopologyError(f"rows must sum to 1 within {STOCH_TOL:g} (off by {row:.3g})")
        # an entry off the pattern is 0, so only a stored one can be negative
        low = vals.min(initial=0.0)
        if low < -1e-12:
            raise TopologyError(f"negative weight {low:.3g}")
        up = (vals > 0) & (rows < cols)
        if not (connected or _connected(n, zip(rows[up].tolist(), cols[up].tolist()))):
            raise TopologyError("positivity pattern of W is not connected")
        for a in (rows, cols, vals):
            a.setflags(write=False)
        self.n = n
        self.rows, self.cols, self.vals = rows, cols, vals

    @functools.cached_property
    def w(self) -> np.ndarray:
        """The dense W, read-only."""
        w = np.zeros((self.n, self.n))
        w[self.rows, self.cols] = self.vals
        w.setflags(write=False)
        return w

    @functools.cached_property
    def spectral(self) -> SpectralInfo:
        return spectral_info(self)

    @functools.cached_property
    def operator(self) -> np.ndarray | NeighborGather:
        """What the methods multiply by: ``w`` itself, or a `NeighborGather`
        of it on a large sparse graph.  Both compute ``W @ X``."""
        per_row = int(np.bincount(self.rows, minlength=self.n).max())
        if self.n >= GATHER_MIN_N and GATHER_PER_ROW * per_row <= self.n:
            return NeighborGather(self)
        return self.w

    def __repr__(self):
        return f"MixingMatrix(n={self.n})"


class NeighborGather:
    """A mixing matrix as each agent's neighbour list, padded to the longest.

    Row i of ``W @ X`` is the sum over k of ``wt[i, k] * X[idx[i, k]]``, taken
    over the nonzeros of row i in ascending column order; padding slots point
    at i with weight 0.  A product costs O(n d p) for d nonzeros per row,
    against the dense product's O(n^2 p).
    """

    def __init__(self, mix: MixingMatrix):
        n, rows = mix.n, mix.rows
        counts = np.bincount(rows, minlength=n)
        slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        self.per_row = int(counts.max())
        self.idx = np.repeat(np.arange(n)[:, None], self.per_row, axis=1)
        self.wt = np.zeros((n, self.per_row))
        self.idx[rows, slot] = mix.cols
        self.wt[rows, slot] = mix.vals
        self.idx.setflags(write=False)
        self.wt.setflags(write=False)

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        return np.einsum("ik,ik...->i...", self.wt, X.take(self.idx, axis=0))


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Metropolis-Hastings weights: w_ij = 1/(1+max(deg_i,deg_j)) on edges."""
    n = g.n
    ends = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2)
    deg = np.bincount(ends.ravel(), minlength=n)
    weight = 1.0 / (1.0 + np.maximum(deg[ends[:, 0]], deg[ends[:, 1]]))
    rows = np.concatenate((ends[:, 0], ends[:, 1]))
    cols = np.concatenate((ends[:, 1], ends[:, 0]))
    off = np.concatenate((weight, weight))
    incident = off[np.argsort(rows, kind="stable")].tolist()
    ends_at = np.cumsum(deg).tolist()
    # fsum rounds once, in any order, so rows that hold the same weights
    # get the same diagonal: a ring or complete graph is exactly circulant
    diag = [1.0 - math.fsum(incident[hi - d:hi]) for hi, d in zip(ends_at, deg.tolist())]
    agents = np.arange(n)
    # every edge of the connected graph gets a positive weight
    return MixingMatrix.from_entries(n, *_sorted_entries(
        n, np.concatenate((rows, agents)), np.concatenate((cols, agents)),
        np.concatenate((off, diag))), connected=True)


def lazify(mix: MixingMatrix, tau: float) -> MixingMatrix:
    """Return (1-tau) W + tau I; maps every eigenvalue to (1-tau) lam + tau.

    Built on W's nonzeros with the dense formula's bits: fl((1-tau) w_ij)
    off the diagonal and fl((1-tau) w_ii) + tau on it, where a diagonal W
    lacks gets tau.  W was checked connected, and scaling by 1 - tau > 0
    keeps every positive entry positive unless it underflows, so only an
    underflow calls for a new search.
    """
    if not 0.0 < tau < 1.0:
        raise TopologyError(f"tau must lie in (0,1), got {tau}")
    n, rows, cols = mix.n, mix.rows, mix.cols
    vals = (1.0 - tau) * mix.vals
    kept = bool(np.all(vals[mix.vals > 0] > 0))
    on_diag = rows == cols
    vals[on_diag] += tau
    missing = np.ones(n, dtype=bool)
    missing[rows[on_diag]] = False
    missing = np.flatnonzero(missing)
    return MixingMatrix.from_entries(n, *_sorted_entries(
        n, np.concatenate((rows, missing)), np.concatenate((cols, missing)),
        np.concatenate((vals, np.full(len(missing), tau)))), connected=kept)


def spectral_info(mix: MixingMatrix) -> SpectralInfo:
    """Eigendata of a mixing matrix with 1/sqrt(n) pinned first.

    A symmetric circulant W takes its eigenvalues from the rfft of its first
    row, one per Fourier mode, so both modes of a cosine/sine pair carry the
    same bits; any other W takes a dense ``eigh``.  The circulant form is
    tested on W's nonzeros, and the dense ``w`` is built only for ``eigh``.
    """
    n = mix.n
    first_row = _circulant_row(n, mix.rows, mix.cols, mix.vals)
    modes = vecs = None
    if first_row is not None:
        vals = rfft(first_row).real[(np.arange(n) + 1) // 2]
        # the consensus mode first, then descending; the stable sort keeps
        # the cosine of a pair before its sine
        modes = np.concatenate(([0], 1 + np.argsort(-vals[1:], kind="stable")))
        vals = vals[modes]
    else:
        vals, vecs = np.linalg.eigh(mix.w)
        order = np.argsort(vals)[::-1]
        vals = vals[order]
        vecs = vecs[:, order]
        ones = np.full(n, 1.0 / np.sqrt(n))
        # eigenvalue 1 is simple for connected W, so column 0 is +-ones
        if vecs[:, 0] @ ones < 0:
            vecs[:, 0] *= -1.0
        vecs = vecs.copy()
        vecs[:, 0] = ones
    if abs(vals[0] - 1.0) > 1e-10:
        raise TopologyError(f"leading eigenvalue {vals[0]} != 1; not doubly stochastic?")
    lam = float(max(abs(vals[1]), abs(vals[-1]))) if n > 1 else 0.0
    return SpectralInfo(
        eigenvalues=vals,
        lam=lam,
        gap=1.0 - lam,
        lambda_min=float(vals[-1]),
        modes=modes,
        dense_vecs=vecs,
    )


def psd_sqrt(mat: np.ndarray, null_tol: float = 0.0) -> np.ndarray:
    """Symmetric PSD square root; rejects eigenvalues below -PSD_TOL and
    takes those at or below null_tol as exact zeros (the root of a round-off
    1e-16 is 1e-8)."""
    mat = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < -PSD_TOL:
        raise TopologyError(
            f"matrix has negative eigenvalue {vals.min():.3g}; square root undefined"
        )
    vals = np.clip(vals, 0.0, None)
    if null_tol > 0.0:
        vals[vals <= null_tol] = 0.0
    return (vecs * np.sqrt(vals)) @ vecs.T
