"""Per-epoch trajectory metrics, CSV serialization, and rate fitting."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

CSV_COLUMNS = (
    "t", "alpha", "grad_norm_sq", "min_grad_norm_sq", "consensus_sq",
    "fgap_mean", "fgap_bar", "q_t", "e_norm_sq", "wall_ns", "diverged",
)


@dataclass(frozen=True)
class TrajectoryRecord:
    t: float
    alpha: float
    grad_norm_sq: float
    min_grad_norm_sq: float
    consensus_sq: float
    fgap_mean: float | None
    fgap_bar: float | None
    q_t: float | None
    e_norm_sq: float | None
    wall_ns: int | None
    diverged: bool = False

    def flag_diverged(self) -> "TrajectoryRecord":
        return dataclasses.replace(self, diverged=True)


def record(X: np.ndarray, t: float, alpha: float, objective, min_prev: float = np.inf,
           transform=None, e_norm_sq: float | None = None,
           wall_ns: int | None = None) -> TrajectoryRecord:
    """Metrics of a stacked-iterate snapshot.

    The function gap columns are absent (None), never zero, when the
    objective carries no minimum value.  The Lyapunov value combines the mean
    function gap with the weighted transformed consensus energy and is only
    defined when both a transform and e_norm_sq are supplied.
    """
    with np.errstate(all="ignore"):
        xbar = X.mean(axis=0)
        g = objective.grad(xbar)
        grad_norm_sq = float(g @ g)
        consensus_sq = float(np.sum((X - xbar) ** 2))
        f_star = objective.constants.f_star
        fgap_mean = fgap_bar = None
        if f_star is not None:
            fgap_mean = float(np.mean(objective.values_at(X))) - f_star
            fgap_bar = objective.value(xbar) - f_star
        q_t = None
        if transform is not None and e_norm_sq is not None and fgap_bar is not None:
            L = objective.constants.L
            weight = 8.0 * alpha * L * L * transform.norm_V2 / (
                objective.n * (1.0 - transform.gamma ** 2))
            q_t = fgap_bar + weight * e_norm_sq
    return TrajectoryRecord(
        t=t, alpha=alpha, grad_norm_sq=grad_norm_sq,
        min_grad_norm_sq=min(min_prev, grad_norm_sq),
        consensus_sq=consensus_sq, fgap_mean=fgap_mean, fgap_bar=fgap_bar,
        q_t=q_t, e_norm_sq=e_norm_sq, wall_ns=wall_ns,
    )


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def to_csv(records, metadata: dict | None = None) -> str:
    """Render records with `#`-prefixed metadata lines and a header row.

    Absent values are empty fields.  Output is byte-deterministic for equal
    inputs (floats use shortest round-trip repr)."""
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append(",".join(CSV_COLUMNS))
    for rec in records:
        row = [_render(getattr(rec, col)) for col in CSV_COLUMNS]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_csv(path, records, metadata: dict | None = None) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(to_csv(records, metadata))


def aggregate(record_sets) -> list:
    """Row-wise arithmetic mean across seeds; None stays None when uniformly
    absent and otherwise averages the present values."""
    if not record_sets:
        return []
    length = min(len(rs) for rs in record_sets)
    out = []
    for row in range(length):
        vals = {}
        for col in CSV_COLUMNS:
            entries = [getattr(rs[row], col) for rs in record_sets]
            if col == "diverged":
                vals[col] = any(entries)
                continue
            present = [e for e in entries if e is not None]
            if not present:
                vals[col] = None
            else:
                vals[col] = float(np.mean(present))
        vals["wall_ns"] = None if vals["wall_ns"] is None else int(vals["wall_ns"])
        out.append(TrajectoryRecord(**vals))
    return out


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    window: tuple
    r2: float
    points: int


def rate_fit(records, metric: str, window: tuple) -> RateFit:
    """Least squares of log(metric) on log(t) over t in [window[0], window[1]].

    Non-finite entries are ignored; non-positive metric values inside the
    window are an error (a log-log slope is meaningless there).
    """
    lo, hi = window
    ts, ys = [], []
    for rec in records:
        if not (lo <= rec.t <= hi) or rec.t <= 0:
            continue
        y = getattr(rec, metric)
        if y is None or not np.isfinite(y):
            continue
        if y <= 0.0:
            raise ValueError(f"non-positive {metric}={y} at t={rec.t} in window")
        ts.append(rec.t)
        ys.append(y)
    if len(ts) < 10:
        raise ValueError(f"need at least 10 records in window, got {len(ts)}")
    return dataclasses.replace(fit_powerlaw(ts, ys), window=(lo, hi))


def fit_powerlaw(xs, ys) -> RateFit:
    """log-log fit of arbitrary positive pairs (used for minimum-gradient
    versus horizon checks)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit needs positive values")
    u, v = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(u, v, 1)
    resid = v - (slope * u + intercept)
    ss_tot = float(np.sum((v - v.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return RateFit(float(slope), float(intercept), (float(xs.min()), float(xs.max())),
                   r2, len(xs))
