"""Stepsize schedules and the theory-constant calculators.

The constants follow the epoch-wise analysis: with gamma the contraction
factor of the transformed recursion and V its basis,

    C4 = ||V^{-1}||^2 ||V||^2 ||Lambda_a||^2
    C1 = (m+1)(1-gamma^2)/(3m) + 3 C4 / 2
    C2 = [1 - ((1+gamma^2)/2)^m] C4 / (1-gamma^2)
    C3 = 12 C4 + C1

`worst_case` swaps the measured transform norms for their closed-form
bound values, reproducing the worst-case constants instead of the
per-instance ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

# the schedule kinds `parse_schedule` reads, each with its argument list
SCHEDULE_FORMS = {"const": "a", "dec": "theta,K", "harmonic": "a,b",
                  "plateau": "a1,a2,..."}
# the regimes `recommend_alpha` prescribes a schedule for
REGIMES = ("ncvx", "pl-const", "pl-decreasing")


def _check_positive(name: str, value: float, allow_zero: bool = False):
    if not (math.isfinite(value) and (value > 0 or allow_zero and value == 0)):
        raise ValueError(f"{name} must be finite and {'>=' if allow_zero else '>'} 0, "
                         f"got {value}")


class Schedule:
    """Stepsize policy; `alpha(t, history)` is pure given the metric history."""

    def alpha(self, t: int, history=()) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantSchedule(Schedule):
    value: float

    def __post_init__(self):
        _check_positive("const stepsize", self.value)

    def alpha(self, t, history=()):
        return self.value


@dataclass(frozen=True)
class DecreasingSchedule(Schedule):
    """alpha_t = theta / (mu m (t + K))."""

    theta: float
    K: float
    mu: float
    m: int

    def __post_init__(self):
        _check_positive("dec theta", self.theta)
        _check_positive("dec K", self.K)
        _check_positive("dec mu (the objective's strong convexity)", self.mu)

    def alpha(self, t, history=()):
        return self.theta / (self.mu * self.m * (t + self.K))


@dataclass(frozen=True)
class HarmonicSchedule(Schedule):
    """alpha_t = 1 / (a t + b)."""

    a: float
    b: float

    def __post_init__(self):
        _check_positive("harmonic a", self.a, allow_zero=True)
        _check_positive("harmonic b", self.b)

    def alpha(self, t, history=()):
        return 1.0 / (self.a * t + self.b)


@dataclass(frozen=True)
class PlateauSchedule(Schedule):
    """Step down a fixed ladder when the monitored metric stagnates.

    A demotion fires when the metric has not improved on its best seen value
    by `threshold` (relative) for `patience` consecutive epochs; the level
    only ever decreases and clamps at the last ladder entry.

    The scan state is kept between calls: given the same list as the last
    call, grown at its end, `alpha` scans only the new entries.  Any other
    history (another object, a shorter one, or one whose last scanned entry
    was replaced) is scanned from the start.
    """

    levels: tuple
    patience: int = 10
    threshold: float = 0.01
    # (history, entries scanned, last entry scanned, level, best, stale)
    # after the last call
    _scan: tuple = field(default=(None, 0, None, 0, math.inf, 0), init=False,
                         compare=False, repr=False)

    def __post_init__(self):
        for level in self.levels:
            _check_positive("plateau level", level)
        if not self.levels or list(self.levels) != sorted(self.levels, reverse=True):
            raise ValueError("plateau levels must be a decreasing ladder")

    def alpha(self, t, history=()):
        seen, done, last, idx, best, stale = self._scan
        if (seen is not history or done > len(history)
                or (done and history[done - 1] is not last)):
            done, idx, best, stale = 0, 0, math.inf, 0
        for value in history[done:]:
            if value < best * (1.0 - self.threshold) or best == math.inf:
                best = min(best, value)
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    idx = min(idx + 1, len(self.levels) - 1)
                    stale = 0
        last = history[-1] if len(history) else None
        object.__setattr__(self, "_scan", (history, len(history), last, idx, best, stale))
        return self.levels[idx]


def _parse_number(text: str) -> float:
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def parse_schedule(spec: str, mu: float | None = None, m: int | None = None) -> Schedule:
    """Parse 'const:a', 'dec:theta,K', 'harmonic:a,b', 'plateau:a1,a2,...'.

    'dec' needs mu and m from the objective to materialize.  'auto' is
    resolved by the harness via `recommend_alpha`, not here.
    """
    kind, _, rest = spec.partition(":")
    if kind not in SCHEDULE_FORMS:
        raise ValueError(f"unknown schedule spec {spec!r}")
    try:
        values = [_parse_number(v) for v in rest.split(",")]
    except (ValueError, ZeroDivisionError):
        values = []
    form = SCHEDULE_FORMS[kind]
    if not values or (kind != "plateau" and len(values) != form.count(",") + 1):
        raise ValueError(f"expected {kind}:{form} with numbers, got {spec!r}")
    if kind == "const":
        return ConstantSchedule(*values)
    if kind == "dec":
        if mu is None or m is None:
            raise ValueError("decreasing schedule needs mu and m")
        return DecreasingSchedule(*values, mu=mu, m=m)
    if kind == "harmonic":
        return HarmonicSchedule(*values)
    return PlateauSchedule(tuple(values))


# ---------------------------------------------------------------------------
# theory calculators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryConstants:
    gamma: float
    m: int
    L: float
    mu: float | None
    T: int
    C1: float
    C2: float
    C3: float
    C4: float
    alpha_max_ncvx: float
    beta: float
    alpha_ncvx: float
    alpha_max_pl: float | None
    beta1: float
    beta2: float | None
    norm_V2: float
    norm_Vinv2: float
    norm_La2: float

    def k_floor(self, theta: float) -> float:
        """Largest of the decreasing-stepsize offsets for a given theta > 16."""
        if self.mu is None:
            raise ValueError("the PL offset needs mu")
        if theta <= 16:
            raise ValueError("theta must exceed 16")
        g2 = 1.0 - self.gamma ** 2
        kappa = self.L / self.mu
        return max(
            32.0 / g2,
            math.sqrt(768.0 * theta ** 2 * self.C1 * kappa ** 3 / (self.m * g2)),
            math.sqrt(12.0 * theta ** 2 * kappa ** 2 * self.C1 / (self.m * g2 ** 2)),
            2.0 * kappa * theta * math.sqrt(self.C1) / g2,
            4.0 * math.sqrt(2.0) * kappa * theta,
            6.0 * theta * self.C1 ** 0.25 * kappa / (self.m ** 0.25 * math.sqrt(g2)),
        )


def _norm_triple(transform, worst_case):
    if worst_case is None:
        # the transform balances V, so ||V^{-1}||^2 is its ||V||^2
        return transform.norm_V2, transform.norm_V2, transform.norm_La2, transform.gamma
    lam = transform.spectral.lam
    if worst_case == "gtrr":
        return 3.0, 9.0, lam ** 2, lam
    if worst_case == "edrr":
        lmin = transform.spectral.lambda_min
        if lmin <= 0:
            raise ValueError("the exact-diffusion bounds need a positive definite W")
        return 4.0, 2.0 / lmin, lam ** 2, math.sqrt(lam)
    raise ValueError(f"worst_case must be None, 'gtrr' or 'edrr', got {worst_case!r}")


def theory_constants(transform, m: int, L: float, mu: float | None, T: int,
                     worst_case: str | None = None) -> TheoryConstants:
    """All rate constants plus the admissible and prescribed stepsizes.

    Pure: identical inputs give identical outputs bit for bit.
    """
    if L <= 0 or m < 1 or T < 1:
        raise ValueError("need L > 0, m >= 1, T >= 1")
    V2, Vinv2, La2, gamma = _norm_triple(transform, worst_case)
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0,1), got {gamma}")
    g2 = 1.0 - gamma ** 2
    C4 = Vinv2 * V2 * La2
    C1 = (m + 1) * g2 / (3.0 * m) + 1.5 * C4
    C2 = (1.0 - ((1.0 + gamma ** 2) / 2.0) ** m) * C4 / g2
    C3 = 12.0 * C4 + C1
    alpha_max_ncvx = min(
        (g2 / (192.0 * m ** 2 * L ** 3 * C1 * T)) ** (1.0 / 3.0),
        1.0 / (4.0 * math.sqrt(2.0) * m * L),
        math.sqrt(g2) / (6.0 * m ** 0.75 * C4 ** 0.25 * L) if C4 > 0 else math.inf,
        g2 / (2.0 * math.sqrt(m * L ** 2 * C1)),
        g2 / (2.0 * math.sqrt(6.0 * m * C4) * L) if C4 > 0 else math.inf,
    )
    beta = (2.0 * math.sqrt(2.0) * g2
            + 3.0 * (g2 ** 2 * C1 / m) ** 0.25
            + math.sqrt(C1 / m)
            + math.sqrt(6.0 * C4 / m))
    alpha_ncvx = 1.0 / (2.0 * m * L * beta / g2
                        + (192.0 * m ** 2 * L ** 3 * C1 * T / g2) ** (1.0 / 3.0))
    alpha_max_pl = None
    if mu is not None and mu > 0:
        alpha_max_pl = min(
            math.sqrt(mu * g2 / (768.0 * m * L ** 3 * C1)),
            g2 / math.sqrt(24.0 * m * L ** 2 * C1),
            g2 / math.sqrt(4.0 * m ** 2 * L ** 2 * C1),
            1.0 / (4.0 * math.sqrt(2.0) * m * L),
            math.sqrt(g2) / (6.0 * m ** 0.75 * C1 ** 0.25 * L),
        )
    lam, lmin = transform.spectral.lam, transform.spectral.lambda_min
    beta1 = (2.0 * math.sqrt(2.0) * (1.0 - lam ** 2)
             + 3.0 * (42.0 * (1.0 - lam ** 2) ** 2 / m) ** 0.25
             + math.sqrt(42.0 / m) + math.sqrt(162.0 / m))
    beta2 = None
    if lmin > 0:
        beta2 = (2.0 * math.sqrt(2.0) * (1.0 - lam)
                 + 3.0 * (38.0 * (1.0 - lam) ** 2 / (3.0 * lmin * m)) ** 0.25
                 + math.sqrt(38.0 / (3.0 * lmin * m))
                 + math.sqrt(48.0 / (lmin * m)))
    return TheoryConstants(
        gamma=gamma, m=m, L=L, mu=mu, T=T, C1=C1, C2=C2, C3=C3, C4=C4,
        alpha_max_ncvx=alpha_max_ncvx, beta=beta, alpha_ncvx=alpha_ncvx,
        alpha_max_pl=alpha_max_pl, beta1=beta1, beta2=beta2,
        norm_V2=V2, norm_Vinv2=Vinv2, norm_La2=La2,
    )


def recommend_alpha(transform, m: int, L: float, mu: float | None, T: int,
                    regime: str, theta: float = 20.0,
                    worst_case: str | None = None) -> Schedule:
    """Analysis-prescribed schedule for a regime.

    'ncvx'          constant stepsize balancing the transient and the T^(1/3)
                    sampling term
    'pl-const'      largest constant stepsize the PL analysis admits
    'pl-decreasing' theta/(mu m (t+K)) with K at the analysis offset floor
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; choose from {', '.join(REGIMES)}")
    tc = theory_constants(transform, m, L, mu, T, worst_case)
    if regime == "ncvx":
        return ConstantSchedule(tc.alpha_ncvx)
    if mu is None or mu <= 0:
        raise ValueError(f"regime {regime!r} needs a positive mu")
    if regime == "pl-const":
        return ConstantSchedule(tc.alpha_max_pl)
    return DecreasingSchedule(theta=theta, K=float(math.ceil(tc.k_floor(theta))),
                              mu=mu, m=m)
