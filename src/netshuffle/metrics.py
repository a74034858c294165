"""Per-epoch trajectory metrics, CSV serialization, and rate fitting.

A run's metrics are held column by column in a `Trajectory`: one
preallocated array per CSV column, plus a presence mask for each column that
may be absent.  An absent value is masked, never stored as NaN, so the NaN
and inf of a diverged row stay values and stay distinct from an empty field.
"""

from __future__ import annotations

import dataclasses
import operator
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class TrajectoryRecord(NamedTuple):
    """One trajectory row as Python values; an absent value is None."""

    t: float
    alpha: float
    grad_norm_sq: float
    min_grad_norm_sq: float
    consensus_sq: float
    fgap_mean: float | None = None
    fgap_bar: float | None = None
    q_t: float | None = None
    e_norm_sq: float | None = None
    wall_ns: int | None = None
    diverged: bool = False


# the CSV columns are the record's fields, in order; the optional ones, which
# may be absent (no minimum value, no transform, no timings), default to None
CSV_COLUMNS = TrajectoryRecord._fields
OPTIONAL_COLUMNS = tuple(name for name, default
                         in TrajectoryRecord._field_defaults.items() if default is None)
_DTYPES = {**dict.fromkeys(CSV_COLUMNS, np.float64),
           "wall_ns": np.int64, "diverged": np.bool_}
# the value of a non-empty CSV cell, by column; an empty cell is absent
_CELL_PARSERS = {**dict.fromkeys(CSV_COLUMNS, float),
                 "wall_ns": int, "diverged": lambda cell: cell == "1"}


class Trajectory:
    """Run metrics stored by column.

    Each CSV column is one array of `capacity` rows (float64; `wall_ns`
    int64, `diverged` bool), filled a row at a time by `record`.  `len()`
    counts the rows filled so far; indexing and iteration give
    `TrajectoryRecord` rows, and `column`/`present` give a column's filled
    values and presence mask as read-only arrays.
    """

    def __init__(self, capacity: int):
        self._cols = {name: np.zeros(capacity, _DTYPES[name]) for name in CSV_COLUMNS}
        self._present = {name: np.zeros(capacity, bool) for name in OPTIONAL_COLUMNS}
        self._len = 0
        self._csv_rows = None   # the rendered data rows, kept by to_csv

    @classmethod
    def from_rows(cls, rows) -> "Trajectory":
        """A trajectory holding `rows`, each a `TrajectoryRecord` or a sequence
        in `CSV_COLUMNS` order; None marks an absent optional value."""
        rows = [TrajectoryRecord(*row) for row in rows]
        traj = _filled(len(rows))
        for name, cells in zip(CSV_COLUMNS, zip(*rows)):
            present = [cell is not None for cell in cells]
            if name not in OPTIONAL_COLUMNS and not all(present):
                raise ValueError(f"column {name!r} cannot be absent")
            traj._fill(name, [0 if cell is None else cell for cell in cells],
                       present if name in OPTIONAL_COLUMNS else None)
        return traj

    def _claim_row(self) -> int:
        """The index of the next row to fill, counted as filled."""
        i = self._len
        if i == len(self._cols["t"]):
            raise IndexError(f"trajectory is full ({i} rows)")
        self._len = i + 1
        self._csv_rows = None
        return i

    def flag_diverged(self) -> None:
        """Mark the last filled row diverged."""
        self._cols["diverged"][self._len - 1] = True
        self._csv_rows = None

    def column(self, name: str) -> np.ndarray:
        """The filled rows of a column, read-only; an absent cell holds 0
        (see `present`)."""
        view = self._cols[name][:self._len]
        view.flags.writeable = False
        return view

    def present(self, name: str) -> np.ndarray:
        """Which filled rows of a column hold a value, read-only."""
        if name not in self._present:
            if name not in self._cols:
                raise KeyError(name)
            return np.ones(self._len, bool)
        view = self._present[name][:self._len]
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index) -> TrajectoryRecord:
        index = operator.index(index)
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("trajectory row out of range")
        return TrajectoryRecord(*(
            None if name in self._present and not self._present[name][index]
            else self._cols[name][index].item() for name in CSV_COLUMNS))

    def __iter__(self):
        return (self[i] for i in range(self._len))

    def __eq__(self, other) -> bool:
        """Equal rows: the same presence everywhere and the same present
        values, NaN equal to NaN."""
        if not isinstance(other, Trajectory):
            return NotImplemented
        if len(self) != len(other):
            return False
        for name in CSV_COLUMNS:
            mask = self.present(name)
            if not (np.array_equal(mask, other.present(name))
                    and np.array_equal(self.column(name)[mask],
                                       other.column(name)[mask], equal_nan=True)):
                return False
        return True

    __hash__ = None

    def __repr__(self) -> str:
        return f"Trajectory({self._len} rows)"

    def _fill(self, name: str, values, present=None) -> None:
        """Set a whole column of a trajectory built with its final length."""
        self._cols[name][:] = values
        if present is not None:
            self._present[name][:] = present
        self._csv_rows = None


def _filled(length: int) -> Trajectory:
    traj = Trajectory(length)
    traj._len = length
    return traj


def record(traj: Trajectory, X: np.ndarray, t: float, alpha: float, objective,
           transform=None, S: np.ndarray | None = None,
           wall_ns: int | None = None) -> TrajectoryRecord:
    """Fill the next row of `traj` with the metrics of a stacked-iterate
    snapshot and return them as a row.

    `min_grad_norm_sq` is the running minimum of `grad_norm_sq` over the rows
    filled so far, this one included.  The function gap columns are absent
    (None), never zero, when the objective carries no minimum value.
    `e_norm_sq` is the squared norm of the transformed consensus error of
    (X, S), the state of the unified recursion, and the Lyapunov value `q_t`
    adds it, weighted, to the function gap at the mean; both are only
    defined when a transform and S are supplied.
    """
    # sums and divisions as np.mean and np.sum make them, without their
    # per-call overhead
    with np.errstate(all="ignore"):
        xbar = X.sum(axis=0) / len(X)
        dev = X - xbar
        consensus_sq = float((dev * dev).sum())
        f_star = objective.constants.f_star
        fgap_mean = fgap_bar = None
        if f_star is None:
            g = objective.grad(xbar)
        else:
            f_bar, g = objective.value_and_grad(xbar)
            fgap_bar = f_bar - f_star
            values = objective.values_at(X)
            fgap_mean = float(values.sum() / len(values)) - f_star
        grad_norm_sq = float(g @ g)
        e_norm_sq = q_t = None
        if transform is not None and S is not None:
            e = transform.e_vector(X, S)
            e_norm_sq = float((e * e).sum())
            if fgap_bar is not None:
                L = objective.constants.L
                weight = 8.0 * alpha * L * L * transform.norm_V2 / (
                    objective.n * (1.0 - transform.gamma ** 2))
                q_t = fgap_bar + weight * e_norm_sq
    i = traj._claim_row()
    cols, present = traj._cols, traj._present
    # Python's min keeps its first argument against a NaN: a run that starts
    # at NaN keeps inf
    min_grad_norm_sq = min(cols["min_grad_norm_sq"][i - 1].item() if i else np.inf,
                           grad_norm_sq)
    cols["t"][i] = t
    cols["alpha"][i] = alpha
    cols["grad_norm_sq"][i] = grad_norm_sq
    cols["min_grad_norm_sq"][i] = min_grad_norm_sq
    cols["consensus_sq"][i] = consensus_sq
    for name, value in (("fgap_mean", fgap_mean), ("fgap_bar", fgap_bar), ("q_t", q_t),
                        ("e_norm_sq", e_norm_sq), ("wall_ns", wall_ns)):
        if value is not None:
            cols[name][i] = value
            present[name][i] = True
    return TrajectoryRecord(t, alpha, grad_norm_sq, min_grad_norm_sq, consensus_sq,
                            fgap_mean, fgap_bar, q_t, e_norm_sq, wall_ns)


def _render_column(values: np.ndarray, present: np.ndarray) -> list:
    """The CSV cells of one column: an integral float below 1e15 as an
    integer, any other float as its shortest round-trip repr, a bool as 1 or
    0, an absent value as an empty field."""
    cells = np.empty(len(values), dtype=object)
    if values.dtype == np.bool_:
        cells[:] = "0"
        cells[values] = "1"
    elif values.dtype == np.int64:
        cells[:] = list(map(str, values.tolist()))
    else:
        with np.errstate(invalid="ignore"):
            integral = (np.abs(values) < 1e15) & (np.floor(values) == values)
        cells[integral] = list(map(str, values[integral].astype(np.int64).tolist()))
        rest = ~integral
        cells[rest] = list(map(repr, values[rest].tolist()))
    cells[~present] = ""
    return cells.tolist()


def to_csv(traj: Trajectory, metadata: dict | None = None) -> str:
    """Render a trajectory with `#`-prefixed metadata lines and a header row.

    Absent values are empty fields.  Output is byte-deterministic for equal
    inputs (floats use shortest round-trip repr)."""
    lines = [f"# {key} = {value}" for key, value in (metadata or {}).items()]
    lines.append(",".join(CSV_COLUMNS))
    if traj._csv_rows is None:
        cells = [_render_column(traj.column(name), traj.present(name))
                 for name in CSV_COLUMNS]
        traj._csv_rows = "".join(",".join(row) + "\n" for row in zip(*cells))
    return "\n".join(lines) + "\n" + traj._csv_rows


def write_csv(path, traj: Trajectory, metadata: dict | None = None) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(to_csv(traj, metadata))


def read_csv(source) -> Trajectory:
    """The trajectory in a CSV written by `to_csv`, from a path or an open
    text file; the `#` metadata lines are skipped."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, newline="") as fh:
            return read_csv(fh)
    lines = [line.rstrip("\r\n") for line in source if not line.startswith("#")]
    lines = [line for line in lines if line]
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ValueError("CSV header is not " + ",".join(CSV_COLUMNS))
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(CSV_COLUMNS) for row in rows):
        raise ValueError(f"every CSV row needs {len(CSV_COLUMNS)} fields")
    parsers = [_CELL_PARSERS[name] for name in CSV_COLUMNS]
    return Trajectory.from_rows([parse(cell) if cell else None
                                 for parse, cell in zip(parsers, row)] for row in rows)


def aggregate(trajectories) -> Trajectory:
    """Row-wise arithmetic mean across seeds, truncated to the shortest run.

    A value absent in every seed stays absent; otherwise the row's present
    values are averaged.  A row is diverged when any seed's is, and `wall_ns`
    is the integer part of its mean.  Each mean sums its values in the order
    `np.mean` sums a list of them.  The mean of one trajectory is that
    trajectory.
    """
    trajectories = list(trajectories)
    if not trajectories:
        return Trajectory(0)
    if len(trajectories) == 1:
        return trajectories[0]
    length = min(len(traj) for traj in trajectories)
    out = _filled(length)
    for name in CSV_COLUMNS:
        # (rows, seeds), C-contiguous: reducing along the last axis sums
        # each row's seeds pairwise, exactly as np.mean sums a 1-D list
        stack = np.stack([traj._cols[name][:length] for traj in trajectories], axis=1)
        if name == "diverged":
            out._fill(name, stack.any(axis=1))
            continue
        stack = stack.astype(np.float64, copy=False)
        if name not in OPTIONAL_COLUMNS:
            out._fill(name, stack.mean(axis=1))
            continue
        mask = np.stack([traj._present[name][:length] for traj in trajectories], axis=1)
        full, some = mask.all(axis=1), mask.any(axis=1)
        mean = np.zeros(length)
        mean[full] = stack[full].mean(axis=1)
        for row in np.flatnonzero(some & ~full):
            mean[row] = np.mean(stack[row, mask[row]])
        out._fill(name, mean.astype(np.int64) if name == "wall_ns" else mean, some)
    return out


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    window: tuple
    r2: float
    points: int


def rate_fit(traj: Trajectory, metric: str, window: tuple) -> RateFit:
    """Least squares of log(metric) on log(t) over t in [window[0], window[1]].

    Absent and non-finite entries are ignored; non-positive metric values
    inside the window are an error (a log-log slope is meaningless there).
    """
    lo, hi = window
    t, y = traj.column("t"), traj.column(metric)
    with np.errstate(invalid="ignore"):
        keep = traj.present(metric) & (lo <= t) & (t <= hi) & (t > 0) & np.isfinite(y)
        bad = keep & (y <= 0)
    if bad.any():
        k = int(np.argmax(bad))
        t_k = t[k].item()
        raise ValueError(f"non-positive {metric}={y[k].item()} at "
                         f"t={int(t_k) if t_k.is_integer() else t_k} in window")
    points = int(keep.sum())
    if points < 10:
        raise ValueError(f"need at least 10 records in window, got {points}")
    return dataclasses.replace(fit_powerlaw(t[keep], y[keep]), window=(lo, hi))


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
