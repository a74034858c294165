"""Per-column moves between two directories of netshuffle CSVs.

    python3 scripts/csv_moves.py <dir-a> <dir-b>

Every CSV of either directory is read with `metrics.read_csv` and compared
with the file of the same name in the other.  For each file and column that
moved, one line gives the largest relative move |b - a| / max(|a|, |b|)
over the rows both files have, and the row and t where it occurs.  A cell
counts only where max(|a|, |b|) is above an absolute floor of 1e-20, so
round-off of an exact 0 (such as `consensus_sq` at t = 0) does not count as
a move.  A cell present in one file and absent in the other, or NaN in only
one, counts as an infinite move.  A changed row count, a changed diverged epoch
(the t of the first row flagged diverged), changed `#` metadata lines and a
file missing on one side get a line each.  The last line says how many
lines were reported; the exit status is 0 when none were, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from netshuffle.metrics import CSV_COLUMNS, read_csv  # noqa: E402


def _metadata(path: Path) -> list:
    with open(path) as fh:
        return [line for line in fh if line.startswith("#")]


def _diverged_at(traj):
    flagged = np.flatnonzero(traj.column("diverged"))
    return float(traj.column("t")[flagged[0]]) if flagged.size else None


def column_move(a, b) -> tuple[float, int] | None:
    """(largest relative move, its row) between two columns' values (NaN
    where absent), or None where no counted cell moved.

    Cells at most 1e-20 in magnitude on both sides are not compared.  In
    the seed-0 sweeps of the three perfbench workloads, `consensus_sq` at
    t = 0, the round-off of an exact consensus, reaches 3.3e-25 (n = 512),
    and the smallest other nonzero cell is 9.3e-11 (`grad_norm_sq`).
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.fmax(np.abs(a), np.abs(b))
        rel = np.abs(b - a) / scale
    # NaN on one side only, or two unequal numbers above the floor; a NaN
    # quotient there (inf against a number) is an infinite move
    counted = (np.isnan(a) != np.isnan(b)) | ((a != b) & (scale > 1e-20))
    rel = np.where(counted, np.nan_to_num(rel, nan=np.inf), 0.0)
    if not rel.any():
        return None
    row = int(np.argmax(rel))
    return float(rel[row]), row


def file_moves(path_a: Path, path_b: Path) -> list[str]:
    """One line per moved column, changed row count, changed diverged epoch
    or changed metadata of one file."""
    name = path_a.name
    a, b = read_csv(path_a), read_csv(path_b)
    out = []
    if len(a) != len(b):
        out.append(f"{name}: rows {len(a)} -> {len(b)}")
    if _diverged_at(a) != _diverged_at(b):
        out.append(f"{name}: diverged at t = {_diverged_at(a)} -> {_diverged_at(b)}")
    if _metadata(path_a) != _metadata(path_b):
        out.append(f"{name}: metadata lines differ")
    rows = min(len(a), len(b))
    t = a.column("t")
    for col in CSV_COLUMNS:
        cells = [np.where(traj.present(col)[:rows],
                          traj.column(col)[:rows].astype(float), np.nan)
                 for traj in (a, b)]
        move = column_move(*cells)
        if move is not None:
            rel, row = move
            out.append(f"{name}: {col} {rel:.3g} (row {row}, t = {t[row]:g})")
    return out


def directory_moves(dir_a, dir_b) -> list[str]:
    """The lines of every CSV of two sweep directories, in file-name order."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names_a = {path.name for path in dir_a.glob("*.csv")}
    names_b = {path.name for path in dir_b.glob("*.csv")}
    out = []
    for name in sorted(names_a | names_b):
        if name not in names_b:
            out.append(f"{name}: only in {dir_a}")
        elif name not in names_a:
            out.append(f"{name}: only in {dir_b}")
        else:
            out.extend(file_moves(dir_a / name, dir_b / name))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args(argv)
    lines = directory_moves(args.dir_a, args.dir_b)
    for line in lines:
        print(line)
    print(f"{len(lines)} moves above an absolute floor of 1e-20")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
