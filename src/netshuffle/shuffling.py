"""Per-agent, per-epoch permutation streams and the without-replacement
variance oracle.

Randomness is counter-keyed: the draw for (agent i, epoch t) depends only on
(master_seed, i, t), never on execution order, so trajectories are invariant
under parallel experiment scheduling.  A stream re-keys one Philox generator
before each draw instead of constructing a new one, which gives the same
numbers without the constructor's entropy gathering.  Every method of a
run seed visits the same orders, so `epoch_orders` keeps each draw it makes
in a small process-wide memo and serves the next method from it.
Components are indexed 0..m-1 internally (the domain convention 1..m maps
to index+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations as _all_perms

import numpy as np
from numpy.random import Generator, Philox

# a reshuffling method's orders: a fresh permutation every epoch, or one
# kept for the whole run; the unshuffled methods draw 'iid'
RESHUFFLE_MODES = ("rr", "once")
MODES = (*RESHUFFLE_MODES, "iid")

# purpose discriminators for the Philox key; keeps permutation, init and
# Monte Carlo streams disjoint for one master seed
PURPOSE_PERM = 0
PURPOSE_INIT = 1
PURPOSE_MC = 2

_AGENT_BITS = 24
_EPOCH_BITS = 24


def _philox_keys(master_seed: int, purpose: int, epoch: int, agent: int = 0,
                 count: int = 1) -> np.ndarray:
    """(count, 2) Philox keys of agents agent..agent+count-1 at `epoch`: the
    master seed, then the purpose, agent and epoch packed into one word."""
    if not (0 <= agent <= agent + count <= 2 ** _AGENT_BITS
            and 0 <= epoch < 2 ** _EPOCH_BITS):
        raise ValueError("agent/epoch out of key range")
    first = (purpose << (_AGENT_BITS + _EPOCH_BITS)) | (agent << _EPOCH_BITS) | epoch
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = master_seed % 2 ** 64
    keys[:, 1] = np.arange(first, first + (count << _EPOCH_BITS), 1 << _EPOCH_BITS,
                           dtype=np.uint64)
    return keys


# what the order memo may hold, in bytes; the oldest chunks go first
ORDER_MEMO_BYTES = 4 * 2 ** 20
# the memo keeps a stream's draws in chunks of consecutive epochs of about
# this many bytes, so that a draw adds no Python object of its own; 64 KiB
# chunks raised a 512-agent sweep's peak RSS about 0.3 MB more than these
_CHUNK_BYTES = 2 ** 14


class _OrderMemo:
    """Epoch orders of each stream (master seed mod 2^64, mode) and shape
    (n, m), kept in chunks of consecutive epochs: row r of a chunk holds its
    r-th epoch, in the smallest integer type that holds m - 1, once `held[r]`
    is set.  The chunks cost at most `ORDER_MEMO_BYTES`, the oldest evicted
    first."""

    def __init__(self):
        self._chunks: dict = {}  # (seed, mode, n, m, chunk) -> (rows, held)
        self.nbytes = 0

    @staticmethod
    def _place(stream: tuple, epoch: int, n: int, m: int) -> tuple:
        """(chunk key, row, rows per chunk, dtype) of `epoch`'s draw."""
        dtype = np.min_scalar_type(m - 1)
        size = max(1, _CHUNK_BYTES // (dtype.itemsize * n * m))
        chunk, row = divmod(epoch, size)
        return (*stream, n, m, chunk), row, size, dtype

    def get(self, stream: tuple, epoch: int, n: int, m: int) -> np.ndarray | None:
        key, row, _, _ = self._place(stream, epoch, n, m)
        rows, held = self._chunks.get(key, (None, None))
        if rows is None or not held[row]:
            return None
        return rows[row].astype(np.int64)

    def put(self, stream: tuple, epoch: int, orders: np.ndarray):
        n, m = orders.shape
        key, row, size, dtype = self._place(stream, epoch, n, m)
        if key not in self._chunks:
            cost = size * (dtype.itemsize * n * m + 1)
            if cost > ORDER_MEMO_BYTES:
                return
            while self.nbytes + cost > ORDER_MEMO_BYTES:
                self.nbytes -= sum(a.nbytes for a in self._chunks.pop(next(iter(self._chunks))))
            self._chunks[key] = np.empty((size, n, m), dtype), np.zeros(size, bool)
            self.nbytes += cost
        rows, held = self._chunks[key]
        rows[row] = orders
        held[row] = True

    def clear(self):
        self._chunks.clear()
        self.nbytes = 0


_ORDERS = _OrderMemo()


def keyed_rng(master_seed: int, purpose: int, agent: int = 0, epoch: int = 0) -> Generator:
    return Generator(Philox(key=_philox_keys(master_seed, purpose, epoch, agent)[0]))


@dataclass(frozen=True)
class PermutationStream:
    """Source of component orders per (agent, epoch).

    mode 'rr'   - fresh uniform permutation each epoch (random reshuffling)
    mode 'once' - one permutation per agent, reused every epoch
    mode 'iid'  - m uniform draws with replacement (unshuffled sampling)

    Each draw equals the one from a fresh `keyed_rng(master_seed,
    PURPOSE_PERM, agent, epoch)`, but comes from one generator that the
    stream re-keys in place, so a stream is used by one run at a time.
    `epoch_orders` serves a draw that any stream of the same seed and mode
    made before from the order memo.
    """

    master_seed: int
    mode: str = "rr"
    _rng: Generator = field(init=False, compare=False, repr=False)
    _state: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "_rng", Generator(Philox()))
        # the Philox state setter copies every word out of this dict, so one
        # dict serves every re-keying; only its key changes between draws.
        # It reads the words one index at a time, which is cheaper on Python
        # ints than on numpy arrays
        object.__setattr__(self, "_state", {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": None},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        })

    def _keyed(self, key: list) -> Generator:
        """The stream's generator, reset to the state `keyed_rng` starts in
        for the two key words `key`."""
        self._state["state"]["key"] = key
        self._rng.bit_generator.state = self._state
        return self._rng

    def _fill(self, epoch: int, m: int, agent: int = 0, count: int = 1) -> np.ndarray:
        """(count, m) array; row i is the draw `keyed_rng` makes for agent
        `agent + i` at `epoch`, or at epoch 0 in mode 'once'.  A permutation
        is 0..m-1 shuffled in place, as in `Generator.permutation(m)`."""
        if m < 1:
            raise ValueError("m must be >= 1")
        keys = _philox_keys(self.master_seed, PURPOSE_PERM,
                            0 if self.mode == "once" else epoch, agent, count).tolist()
        out = np.empty((count, m), dtype=np.int64)
        if self.mode == "iid":
            for key, row in zip(keys, out):
                row[:] = self._keyed(key).integers(0, m, size=m)
            return out
        out[:] = np.arange(m)
        for key, row in zip(keys, out):
            self._keyed(key).shuffle(row)
        return out

    def permutation(self, agent: int, epoch: int, m: int) -> np.ndarray:
        return self._fill(epoch, m, agent)[0]

    def epoch_orders(self, n: int, epoch: int, m: int) -> np.ndarray:
        """(n, m) array; row i is agent i's visiting order for this epoch.
        The array is the caller's own, whether drawn or read from the memo."""
        stream = (self.master_seed % 2 ** 64, self.mode)
        keyed = 0 if self.mode == "once" else epoch
        orders = _ORDERS.get(stream, keyed, n, m)
        if orders is None:
            orders = self._fill(epoch, m, count=n)
            _ORDERS.put(stream, keyed, orders)
        return orders


def rr_variance(X: np.ndarray, ell: int) -> tuple[float, float]:
    """Empirical vs predicted variance of a without-replacement partial mean.

    For fixed vectors X_1..X_m with mean Xbar and population variance
    sigma^2, the mean of the first ell entries of a uniform permutation
    deviates from Xbar with expected squared norm (m-ell)/(ell(m-1)) sigma^2.
    The empirical side enumerates all m! permutations, so m is limited to 7
    (5040 permutations).  Returns (empirical, predicted).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = X.shape[0]
    if m < 2:
        raise ValueError("need m >= 2 for a nondegenerate population variance")
    if m > 7:
        raise ValueError(f"m = {m} is above the enumeration limit m <= 7")
    if not 1 <= ell <= m:
        raise ValueError(f"ell must lie in 1..{m}")
    xbar = X.mean(axis=0)
    sigma2 = float(np.mean(np.sum((X - xbar) ** 2, axis=1)))
    predicted = (m - ell) / (ell * (m - 1)) * sigma2
    if ell == m:
        return 0.0, 0.0
    total = 0.0
    for perm in _all_perms(range(m)):
        d = X[list(perm[:ell])].mean(axis=0) - xbar
        total += float(d @ d)
    return total / math.factorial(m), predicted
