import importlib.util
from pathlib import Path

import numpy as np

from netshuffle.harness import ExperimentConfig, run_sweep

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "csv_moves.py"
_spec = importlib.util.spec_from_file_location("csv_moves", _SCRIPT)
csv_moves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_moves)

_SWEEP = dict(n=6, m=3, dim=2, epochs=4, methods=("drr", "gtrr"), seeds=(0, 1),
              stepsize="const:0.05")


def _rewrite_cell(path: Path, row: int, column: str, value: str):
    lines = path.read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].rstrip("\n").split(",").index(column)
    cells = lines[header + 1 + row].rstrip("\n").split(",")
    cells[col] = value
    lines[header + 1 + row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def test_csv_moves_finds_only_the_column_two_sweeps_differ_in(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_sweep(ExperimentConfig(outdir=str(a), **_SWEEP))
    # wall times are the only column that --timings writes
    run_sweep(ExperimentConfig(outdir=str(b), timings=True, **_SWEEP))
    names = sorted(path.name for path in a.glob("*.csv"))
    assert len(names) == 6
    assert csv_moves.directory_moves(a, a) == []
    lines = csv_moves.directory_moves(a, b)
    assert lines == [f"{name}: wall_ns inf (row 0, t = 0)" for name in names]
    assert csv_moves.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("6 moves")
    # one cell of one file moved by a known amount, and the round-off of an
    # exact 0 at t = 0 set to 0, which lies below the floor
    run_sweep(ExperimentConfig(outdir=str(c), **_SWEEP))
    traj = csv_moves.read_csv(c / "gtrr_seed1.csv")
    old = traj.column("fgap_mean")[2]
    _rewrite_cell(c / "gtrr_seed1.csv", 2, "fgap_mean", repr(float(old * (1 + 2 ** -30))))
    assert 0.0 < traj.column("consensus_sq")[0] < 1e-20
    _rewrite_cell(c / "gtrr_seed1.csv", 0, "consensus_sq", "0")
    lines = csv_moves.directory_moves(a, c)
    assert lines == [f"gtrr_seed1.csv: fgap_mean {2 ** -30 / (1 + 2 ** -30):.3g} (row 2, t = 2)"]
    assert csv_moves.main([str(a), str(a)]) == 0
    assert capsys.readouterr().out == "0 moves above an absolute floor of 1e-20\n"


def test_csv_moves_compares_only_cells_above_the_floor():
    # 1e-20 against 0 is not a move; just above the floor on one side is
    below, above = np.array([1e-20, 0.0, 5.0]), np.array([0.0, -1e-20, 5.0])
    assert csv_moves.column_move(below, above) is None
    assert csv_moves.column_move(np.array([0.0, 1.0]), np.array([2e-20, 1.0])) == (1.0, 0)
    assert csv_moves.column_move(np.array([3e-20, 1.0]), np.array([1e-20, 1.5])) == (2 / 3, 0)


def test_csv_moves_reports_rows_divergence_and_missing_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_sweep(ExperimentConfig(outdir=str(a), **_SWEEP))
    run_sweep(ExperimentConfig(outdir=str(b), **{**_SWEEP, "epochs": 3}))
    (b / "drr_mean.csv").unlink()
    _rewrite_cell(b / "gtrr_seed0.csv", 3, "diverged", "1")
    lines = csv_moves.directory_moves(a, b)
    assert f"drr_mean.csv: only in {a}" in lines
    assert "drr_seed0.csv: rows 5 -> 4" in lines
    assert "gtrr_seed0.csv: diverged at t = None -> 3.0" in lines
    assert "gtrr_seed0.csv: diverged 1 (row 3, t = 3)" in lines
    assert "gtrr_seed0.csv: metadata lines differ" in lines  # epochs is hashed
    assert np.isinf(csv_moves.column_move(np.array([np.nan]), np.array([1.0]))[0])
