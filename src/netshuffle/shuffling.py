"""Per-agent, per-epoch permutation streams and the without-replacement
variance oracle.

Randomness is counter-keyed: the draw for (agent i, epoch t) depends only on
(master_seed, i, t), never on execution order, so trajectories are invariant
under parallel experiment scheduling.  A stream re-keys one Philox generator
before each draw instead of constructing a new one, which gives the same
numbers without the constructor's entropy gathering.  An epoch's draws for
many agents instead come from a kernel that runs Philox over all of them at
once as numpy array operations, bit for bit the numbers of the per-agent
generators.  Every method of a run seed visits the same orders: the methods
of one seed run in lockstep and share one stream per mode, which keeps the
draws of the newest two epochs it was asked for and serves the next method
from them.
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


def keyed_rng(master_seed: int, purpose: int, agent: int = 0, epoch: int = 0) -> Generator:
    return Generator(Philox(key=_philox_keys(master_seed, purpose, epoch, agent)[0]))


# ---------------------------------------------------------------------------
# the lane kernel: one epoch's draws for many agents as numpy array
# operations over an agent axis, bit-identical to numpy's Philox4x64-10
# (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
# Generator.shuffle and Generator.integers on each agent's own key
# ---------------------------------------------------------------------------

# (fewest agents, largest m) of the draws `_fill` makes with the kernel:
# with fewer agents or a larger m the per-agent loop measured faster (2
# cores, BLAS threads 1; README "Permutation orders")
KERNEL_CROSSOVERS = {"permutation": (256, 16), "iid": (64, 128)}

# Philox4x64's multipliers of state words 0 and 2, and its key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = 0xFFFFFFFF
_WORD64 = 2 ** 64 - 1


def _philox_words(key0: int, key1: np.ndarray, first: int, blocks: int) -> np.ndarray:
    """(8 blocks, lanes) uint64: column l holds the 32-bit words that
    `Philox(key=(key0, key1[l]))` gives from block `first` on, in the order
    `next_uint32` returns them.

    A fresh Philox computes its first block at counter (1, 0, 0, 0), and
    `next_uint32` splits each 64-bit output low half first.  The rounds run
    on (2, lanes * blocks) arrays, state words 0 and 2 in one and 3 and 1 in
    the other.  A round multiplies the first by Philox's two multipliers:
    numpy keeps the low 64 bits of each product, and the high 64 bits are
    summed from the four 32-by-32-bit products of the halves.
    """
    lanes = len(key1)
    size = lanes * blocks
    # the multipliers and their low and high halves, one per lane, since a
    # constant broadcast along the lanes multiplies more slowly
    mult = np.empty((3, 1, 2, size), dtype=np.uint64)
    for row, M in enumerate(_PHILOX_M):
        mult[:, 0, row] = np.array([[M], [M & _LOW32], [M >> 32]], dtype=np.uint64)
    # round 1 at counter (c, 0, 0, 0) leaves (key0, 0, hi(c M0) ^ key1, lo(c M0))
    even = np.empty((2, size), dtype=np.uint64)   # words (0, 2)
    odd = np.zeros((2, size), dtype=np.uint64)    # words (3, 1)
    even[0] = key0
    for b in range(blocks):
        c = (first + b) * _PHILOX_M[0]
        lanes_b = slice(b * lanes, (b + 1) * lanes)
        np.bitwise_xor(key1, c >> 64, out=even[1, lanes_b])
        odd[0, lanes_b] = c & _WORD64
    halves = np.empty((2, 2, size), dtype=np.uint64)
    # the four 32-by-32-bit products: (low, high half of M) x (low, high half)
    products = np.empty((2, 2, 2, size), dtype=np.uint64)
    t, u, high = products[0, 0], products[0, 1], products[1, 1]
    k1 = np.tile(key1, blocks)
    for r in range(1, 10):
        # the key is bumped before each round but the first; then w0, w1,
        # w2, w3 become hi(M1 w2) ^ w1 ^ k0, lo(M1 w2), hi(M0 w0) ^ w3 ^ k1
        # and lo(M0 w0)
        k1 += _PHILOX_W[1]
        last = odd
        odd = even * mult[0, 0]
        np.bitwise_and(even, _LOW32, out=halves[0])
        np.right_shift(even, 32, out=halves[1])
        np.multiply(halves, mult[1:], out=products)
        # no partial sum below overflows 64 bits
        t >>= 32
        t += u
        np.bitwise_and(t, _LOW32, out=u)
        u += products[1, 0]
        products[0] >>= 32
        t += u
        high += t
        last ^= high
        np.bitwise_xor(last[1], (key0 + r * _PHILOX_W[0]) & _WORD64, out=even[0])
        np.bitwise_xor(last[0], k1, out=even[1])
    words = np.empty((blocks, 4, 2, lanes), dtype=np.uint64)
    for k, word in enumerate((even[0], odd[1], even[1], odd[0])):
        word = word.reshape(blocks, lanes)
        np.bitwise_and(word, _LOW32, out=words[:, k, 0])
        np.right_shift(word, 32, out=words[:, k, 1])
    return words.reshape(8 * blocks, lanes)


def _kernel_permutations(key0: int, key1: np.ndarray, m: int) -> tuple:
    """(orders, short): orders is (lanes, m) int64, and row l equals
    `Generator(Philox(key=(key0, key1[l]))).permutation(m)` unless l is in
    the index array `short`, the lanes whose words ran out.

    `Generator.shuffle` swaps entry i with entry `random_interval(i)` for
    i = m-1..1, and `random_interval(i)` takes 32-bit words w until
    w & mask <= i, mask the smallest 2^k - 1 >= i.  The scan runs over the
    words of one Philox pass, all lanes at once, and the swaps are applied
    afterwards; the few lanes it leaves short are for the caller to draw.
    """
    lanes = len(key1)
    masks = np.array([0] + [(1 << i.bit_length()) - 1 for i in range(1, m)])
    # picks[l (m + 1) + 1 + i] is lane l's j for i; a lane that is done has
    # i = -1 (masks[-1] is a valid index, and no word is <= -1), so its
    # writes fall in the spare slot l (m + 1)
    picks = np.zeros(lanes * (m + 1), dtype=np.int64)
    slots = np.arange(1, lanes * (m + 1), m + 1)
    i = np.full(lanes, m - 1)
    # i takes a geometric number of words, with success p = (i + 1) /
    # (mask + 1); blocks for the mean plus four standard deviations leave
    # few lanes short
    p = [(k + 1) / (1 << k.bit_length()) for k in range(1, m)]
    enough = sum(1 / q for q in p) + 4 * math.sqrt(sum((1 - q) / q ** 2 for q in p))
    blocks = max(1, math.ceil(enough / 8))
    for col, word in enumerate(_philox_words(key0, key1, 1, blocks).view(np.int64)):
        drawn = masks.take(i)
        drawn &= word
        picks[slots + i] = drawn
        i -= drawn <= i
        if col >= m - 2 and i.max() < 1:
            break
    # the swaps, on (m, lanes): entry k of each lane with its entry picks[k]
    out = np.repeat(np.arange(m), lanes).reshape(m, lanes)
    flat = out.reshape(-1)
    targets = picks.reshape(lanes, m + 1)[:, 1:].T * lanes + np.arange(lanes)
    for k in range(m - 1, 0, -1):
        j = targets[k]
        held = flat[j]
        flat[j] = out[k]
        out[k] = held
    return np.ascontiguousarray(out.T), np.flatnonzero(i > 0)


def _kernel_integers(key0: int, key1: np.ndarray, high: int, size: int) -> np.ndarray:
    """(lanes, size) int64; row l equals `Generator(Philox(key=(key0,
    key1[l]))).integers(0, high, size=size)` for 1 < high < 2^32.

    numpy draws each entry with Lemire's bounded method: the 32-bit word w
    gives w * high >> 32, unless the low 32 bits of w * high fall below
    2^32 mod high, in which case the word is dropped and the next one tried.
    A lane keeps its first `size` accepted words.
    """
    lanes = len(key1)
    floor = (2 ** 32 - high) % high
    blocks = -(-size // 8)
    words = _philox_words(key0, key1, 1, blocks)
    while True:
        scaled = words * high
        kept = (scaled & _LOW32) >= floor
        if kept.sum(axis=0).min() >= size:
            break
        words = np.concatenate([words, _philox_words(key0, key1, blocks + 1, 1)])
        blocks += 1
    kept &= np.cumsum(kept, axis=0) <= size
    scaled >>= 32
    return scaled.T[kept.T].reshape(lanes, size).astype(np.int64)


@dataclass(frozen=True)
class PermutationStream:
    """Source of component orders per (agent, epoch).

    mode 'rr'   - fresh uniform permutation each epoch (random reshuffling)
    mode 'once' - one permutation per agent, reused every epoch
    mode 'iid'  - m uniform draws with replacement (unshuffled sampling)

    Each draw equals the one from a fresh `keyed_rng(master_seed,
    PURPOSE_PERM, agent, epoch)`, but comes from one generator that the
    stream re-keys in place before each draw, so the runs that share a
    stream may interleave their calls.  `epoch_orders` keeps the (n, m)
    draws of the newest two epochs it was asked for: the methods of a seed
    that share the stream ask for the same epoch in turn, and DSGT asks for
    epoch t + 1 during epoch t.
    """

    master_seed: int
    mode: str = "rr"
    _rng: Generator = field(init=False, compare=False, repr=False)
    _state: dict = field(init=False, compare=False, repr=False)
    # (n, keyed epoch, m) -> orders, the newest two epochs drawn
    _kept: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
        is 0..m-1 shuffled in place, as in `Generator.permutation(m)`.  The
        kernel makes the draw on the fast side of `KERNEL_CROSSOVERS`, the
        re-keyed generator elsewhere and in the lanes the kernel's words
        left short."""
        if m < 1:
            raise ValueError("m must be >= 1")
        keys = _philox_keys(self.master_seed, PURPOSE_PERM,
                            0 if self.mode == "once" else epoch, agent, count)
        iid = self.mode == "iid"
        min_lanes, max_m = KERNEL_CROSSOVERS["iid" if iid else "permutation"]
        if count >= min_lanes and 1 < m <= max_m:
            key0, key1 = self.master_seed % 2 ** 64, keys[:, 1].copy()
            if iid:
                return _kernel_integers(key0, key1, m, m)
            out, short = _kernel_permutations(key0, key1, m)
            if short.size:
                out[short] = self._draw_each(keys[short], m)
            return out
        return self._draw_each(keys, m)

    def _draw_each(self, keys: np.ndarray, m: int) -> np.ndarray:
        """(len(keys), m) array; row i is the draw of the generator re-keyed
        to `keys[i]`."""
        keys = keys.tolist()
        out = np.empty((len(keys), m), dtype=np.int64)
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
        """(n, m) int64 array; row i is agent i's visiting order for this
        epoch.  The array is the caller's own, whether drawn or kept."""
        key = (n, 0 if self.mode == "once" else epoch, m)
        if key not in self._kept:
            self._kept[key] = self._fill(epoch, m, count=n)
            if len(self._kept) > 2:
                del self._kept[next(iter(self._kept))]
        return self._kept[key].copy()


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
