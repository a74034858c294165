"""Per-agent, per-epoch permutation streams and the without-replacement
variance oracle.

Randomness is counter-keyed: the draw for (agent i, epoch t) depends only on
(master_seed, i, t), never on execution order, so trajectories are invariant
under parallel experiment scheduling.  A stream re-keys one Philox generator
before each draw instead of constructing a new one, which gives the same
numbers without the constructor's entropy gathering.  Components are indexed
0..m-1 internally (the domain convention 1..m maps to index+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations as _all_perms

import numpy as np
from numpy.random import Generator, Philox

MODES = ("rr", "once", "iid")

# purpose discriminators for the Philox key; keeps permutation, init and
# Monte Carlo streams disjoint for one master seed
PURPOSE_PERM = 0
PURPOSE_INIT = 1
PURPOSE_MC = 2

_AGENT_BITS = 24
_EPOCH_BITS = 24
_ZEROS4 = np.zeros(4, dtype=np.uint64)  # the Philox state setter copies it
_ZEROS4.setflags(write=False)


def _philox_key(master_seed: int, purpose: int, agent: int, epoch: int) -> np.ndarray:
    if not (0 <= agent < 2 ** _AGENT_BITS and 0 <= epoch < 2 ** _EPOCH_BITS):
        raise ValueError("agent/epoch out of key range")
    sub = (purpose << (_AGENT_BITS + _EPOCH_BITS)) | (agent << _EPOCH_BITS) | epoch
    return np.array([master_seed % 2 ** 64, sub], dtype=np.uint64)


def keyed_rng(master_seed: int, purpose: int, agent: int = 0, epoch: int = 0) -> Generator:
    return Generator(Philox(key=_philox_key(master_seed, purpose, agent, epoch)))


@dataclass(frozen=True)
class PermutationStream:
    """Source of component orders per (agent, epoch).

    mode 'rr'   - fresh uniform permutation each epoch (random reshuffling)
    mode 'once' - one permutation per agent, reused every epoch
    mode 'iid'  - m uniform draws with replacement (unshuffled sampling)

    Each draw equals the one from a fresh `keyed_rng(master_seed,
    PURPOSE_PERM, agent, epoch)`, but comes from one generator that the
    stream re-keys in place, so a stream is used by one run at a time.
    """

    master_seed: int
    mode: str = "rr"
    _rng: Generator = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "_rng", Generator(Philox()))

    def _keyed(self, agent: int, epoch: int) -> Generator:
        """The stream's generator, reset to the state `keyed_rng` starts in."""
        self._rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS4,
                      "key": _philox_key(self.master_seed, PURPOSE_PERM, agent, epoch)},
            "buffer": _ZEROS4,
            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return self._rng

    def permutation(self, agent: int, epoch: int, m: int) -> np.ndarray:
        if m < 1:
            raise ValueError("m must be >= 1")
        eff_epoch = 0 if self.mode == "once" else epoch
        rng = self._keyed(agent, eff_epoch)
        if self.mode == "iid":
            return rng.integers(0, m, size=m)
        return rng.permutation(m)

    def epoch_orders(self, n: int, epoch: int, m: int) -> np.ndarray:
        """(n, m) array; row i is agent i's visiting order for this epoch."""
        return np.stack([self.permutation(i, epoch, m) for i in range(n)])


def rr_variance(X: np.ndarray, ell: int, mc_draws: int = 200_000,
                mc_seed: int = 0) -> tuple[float, float]:
    """Empirical vs predicted variance of a without-replacement partial mean.

    For fixed vectors X_1..X_m with mean Xbar and population variance
    sigma^2, the mean of the first ell entries of a uniform permutation
    deviates from Xbar with expected squared norm (m-ell)/(ell(m-1)) sigma^2.
    The empirical side enumerates all m! permutations when m <= 7, otherwise
    falls back to seeded Monte Carlo.  Returns (empirical, predicted).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = X.shape[0]
    if m < 2:
        raise ValueError("need m >= 2 for a nondegenerate population variance")
    if not 1 <= ell <= m:
        raise ValueError(f"ell must lie in 1..{m}")
    xbar = X.mean(axis=0)
    sigma2 = float(np.mean(np.sum((X - xbar) ** 2, axis=1)))
    predicted = (m - ell) / (ell * (m - 1)) * sigma2
    if ell == m:
        return 0.0, 0.0
    if m <= 7:
        total = 0.0
        for perm in _all_perms(range(m)):
            d = X[list(perm[:ell])].mean(axis=0) - xbar
            total += float(d @ d)
        empirical = total / math.factorial(m)
    else:
        rng = keyed_rng(mc_seed, PURPOSE_MC)
        acc = 0.0
        for _ in range(mc_draws):
            idx = rng.permutation(m)[:ell]
            d = X[idx].mean(axis=0) - xbar
            acc += float(d @ d)
        empirical = acc / mc_draws
    return empirical, predicted
