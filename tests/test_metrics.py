import io

import numpy as np
import pytest

from netshuffle.algorithms import run
from netshuffle.metrics import (CSV_COLUMNS, OPTIONAL_COLUMNS, Trajectory,
                                TrajectoryRecord, aggregate, fit_powerlaw,
                                rate_fit, read_csv, record, to_csv, write_csv)
from netshuffle.objective import ObjectiveConstants, make_quadratic
from netshuffle.stepsize import ConstantSchedule
from netshuffle.topology import build_graph, metropolis_weights
from netshuffle.unified import gtrr_operator, transform_data


def test_record_at_consensus_optimum_all_tiny():
    obj = make_quadratic(6, 3, 4, seed=9, consistent=True)
    X = np.tile(obj.x_star, (6, 1))
    rec = record(Trajectory(1), X, 0, 0.01, obj)
    assert rec.grad_norm_sq < 1e-18
    assert rec.consensus_sq < 1e-18
    assert rec.fgap_mean < 1e-18 and rec.fgap_bar < 1e-18


def test_record_single_agent_zero_consensus():
    obj = make_quadratic(1, 3, 4, seed=9)
    X = np.ones((1, 4))
    rec = record(Trajectory(1), X, 0, 0.01, obj)
    assert rec.consensus_sq == 0.0


def test_q_t_dominates_function_gap(quad8, ring8, rng):
    td = transform_data(gtrr_operator(ring8))
    X = rng.normal(size=(8, 4))
    S = rng.normal(size=(8, 4))
    rec = record(Trajectory(1), X, 0, 0.02, quad8, transform=td, S=S)
    assert rec.q_t is not None
    assert rec.q_t >= rec.fgap_bar
    assert rec.e_norm_sq > 0.0


def test_fgap_absent_when_f_star_unknown(rng):
    obj = make_quadratic(3, 2, 3, seed=2)
    obj.constants = ObjectiveConstants(L=obj.constants.L, mu=None, f_star=None,
                                       f_star_components=None,
                                       f_star_agents=None)
    rec = record(Trajectory(1), rng.normal(size=(3, 3)), 0, 0.01, obj)
    assert rec.fgap_mean is None and rec.fgap_bar is None and rec.q_t is None


def test_min_grad_norm_non_increasing_along_run(ring8):
    obj = make_quadratic(8, 4, 3, seed=4, condition=2.0)
    records = run("gtrr", obj, ring8, ConstantSchedule(0.02), 40, seed=0,
                  init_scale=2.0)
    mins = [r.min_grad_norm_sq for r in records]
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    assert all(r.min_grad_norm_sq <= r.grad_norm_sq for r in records)


@pytest.mark.parametrize("method", ["drr", "gtrr", "edrr"])
def test_min_grad_norm_is_running_minimum_over_inner_rows(method, ring8, lazy_ring8):
    obj = make_quadratic(8, 5, 4, seed=11, condition=2.0, spread=5.0)
    mix = lazy_ring8 if method == "edrr" else ring8
    traj = run(method, obj, mix, ConstantSchedule(0.3), 30, seed=0, inner_metrics=True)
    assert len(traj) == 31 + 30 * (obj.m - 1) and not traj[-1].diverged
    grads = traj.column("grad_norm_sq")
    assert np.array_equal(traj.column("min_grad_norm_sq"), np.minimum.accumulate(grads))


def test_consensus_bounded_by_transform_along_run(ring8):
    obj = make_quadratic(8, 4, 3, seed=4, condition=2.0)
    td = transform_data(gtrr_operator(ring8))
    records = run("gtrr", obj, ring8, ConstantSchedule(0.02), 30, seed=0,
                  init="random", init_scale=1.0, transform=td)
    for rec in records:
        assert rec.e_norm_sq is not None
        assert rec.consensus_sq <= td.norm_V2 * rec.e_norm_sq * (1 + 1e-10) + 1e-15


def test_exact_consensus_under_decreasing_stepsize_vs_dsgd_stall():
    # reshuffling members of the tracked/dual-corrected family drive the
    # consensus error below 1e-10 by T=500 under the decreasing schedule,
    # while plain decentralized SGD at the matching constant stepsize stalls
    from netshuffle.stepsize import DecreasingSchedule
    from netshuffle.topology import lazify
    from netshuffle.unified import edrr_operator, gtrr_operator, transform_data

    n, m, T = 16, 250, 500
    ring = metropolis_weights(build_graph("ring", n=n))
    lazy = lazify(ring, 0.5)
    obj = make_quadratic(n, m, 5, seed=6, condition=1.0, hetero=3.0, spread=0.0)
    mu = obj.constants.mu
    final = {}
    for method, mix, opf in (("gtrr", ring, gtrr_operator),
                             ("edrr", lazy, edrr_operator)):
        td = transform_data(opf(mix))
        K = float(np.ceil(32.0 / (1.0 - td.gamma ** 2)))
        sched = DecreasingSchedule(theta=20.0, K=K, mu=mu, m=m)
        recs = run(method, obj, mix, sched, T, seed=0, init_scale=1.0,
                   init_seed=6)
        final[method] = recs[-1].consensus_sq
        assert recs[-1].consensus_sq < 1e-10, method
    # same budget, constant stepsize equal to the schedule's starting value
    td = transform_data(gtrr_operator(ring))
    K = float(np.ceil(32.0 / (1.0 - td.gamma ** 2)))
    alpha0 = 20.0 / (mu * m * K)
    recs = run("dsgd", obj, ring, ConstantSchedule(alpha0), T, seed=0,
               init_scale=1.0, init_seed=6)
    assert recs[-1].consensus_sq > 1e-6


def test_csv_layout_and_absent_fields():
    recs = Trajectory.from_rows([
        TrajectoryRecord(0, 0.1, 1.0, 1.0, 0.5, None, None, None, None, None),
        TrajectoryRecord(1, 0.1, 0.5, 0.5, 0.25, 0.1, 0.05, 0.07, 0.2, 12,
                         diverged=True),
    ])
    text = to_csv(recs, {"config_hash": "abc", "seed": 0})
    lines = text.strip().split("\n")
    assert lines[0] == "# config_hash = abc"
    assert lines[1] == "# seed = 0"
    assert lines[2] == ",".join(CSV_COLUMNS)
    row0 = lines[3].split(",")
    assert row0[0] == "0" and row0[5] == "" and row0[-1] == "0"
    row1 = lines[4].split(",")
    assert row1[-2] == "12" and row1[-1] == "1"
    assert to_csv(recs, {"config_hash": "abc", "seed": 0}) == text  # stable bytes


def test_aggregate_means_and_divergence_flag():
    mk = lambda g, div=False: TrajectoryRecord(0, 0.1, g, g, 0.0, None, g,
                                               None, None, None, diverged=div)
    agg = aggregate([Trajectory.from_rows([mk(1.0)]),
                     Trajectory.from_rows([mk(3.0, div=True)])])
    assert agg[0].grad_norm_sq == pytest.approx(2.0)
    assert agg[0].fgap_bar == pytest.approx(2.0)
    assert agg[0].fgap_mean is None
    assert agg[0].diverged is True


def test_rate_fit_exact_power_laws():
    recs = Trajectory.from_rows(
        TrajectoryRecord(t, 0.1, 1.0, 1.0, 0.0, 7.0 / t ** 2, None, None, None, None)
        for t in range(1, 200))
    fit = rate_fit(recs, "fgap_mean", (10, 150))
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    recs = Trajectory.from_rows(
        TrajectoryRecord(t, 0.1, 1.0, 1.0, 0.0, 2.0 * t ** (-2.0 / 3.0), None, None,
                         None, None) for t in range(1, 200))
    fit = rate_fit(recs, "fgap_mean", (10, 150))
    assert fit.slope == pytest.approx(-2.0 / 3.0, abs=1e-3)


def test_rate_fit_guards():
    recs = [TrajectoryRecord(t, 0.1, 1.0, 1.0, 0.0, 1.0 / t, None, None, None,
                             None) for t in range(1, 12)]
    with pytest.raises(ValueError, match="at least 10"):
        rate_fit(Trajectory.from_rows(recs), "fgap_mean", (1, 5))
    bad = recs + [TrajectoryRecord(12, 0.1, 1.0, 1.0, 0.0, -1.0, None, None,
                                   None, None)]
    with pytest.raises(ValueError, match="non-positive"):
        rate_fit(Trajectory.from_rows(bad), "fgap_mean", (1, 12))
    # non-finite entries are skipped, not fatal
    nanrec = TrajectoryRecord(6, 0.1, 1.0, 1.0, 0.0, float("nan"), None, None,
                              None, None)
    fit = rate_fit(Trajectory.from_rows(recs[:5] + [nanrec] + recs[5:]),
                   "fgap_mean", (1, 11))
    assert fit.points == 11


def test_fit_powerlaw_simple():
    xs = np.array([64, 128, 256, 512], dtype=float)
    fit = fit_powerlaw(xs, 5.0 * xs ** -0.7)
    assert fit.slope == pytest.approx(-0.7, abs=1e-9)
    with pytest.raises(ValueError):
        fit_powerlaw(xs, [1.0, -1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# columnar trajectories against the row-wise reference
# ---------------------------------------------------------------------------


def _row_render(value) -> str:
    # the row-wise cell renderer the columnar `to_csv` replaced
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _row_to_csv(rows, metadata=None) -> str:
    lines = [f"# {key} = {value}" for key, value in (metadata or {}).items()]
    lines.append(",".join(CSV_COLUMNS))
    for rec in rows:
        lines.append(",".join(_row_render(getattr(rec, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _row_aggregate(row_sets) -> list:
    # the row-wise mean across seeds the columnar `aggregate` replaced
    if not row_sets:
        return []
    length = min(len(rs) for rs in row_sets)
    out = []
    for row in range(length):
        vals = {}
        for col in CSV_COLUMNS:
            entries = [getattr(rs[row], col) for rs in row_sets]
            if col == "diverged":
                vals[col] = any(entries)
                continue
            present = [e for e in entries if e is not None]
            vals[col] = None if not present else float(np.mean(present))
        vals["wall_ns"] = None if vals["wall_ns"] is None else int(vals["wall_ns"])
        out.append(TrajectoryRecord(**vals))
    return out


def _row_sets():
    """A hypothesis strategy for 1-12 seeds' rows of unequal lengths: NaN,
    inf, integral floats, floats of 1e15 and above, absent values with
    uniform or mixed presence across seeds, and diverged rows."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cell = st.one_of(
        st.floats(-1.0, 1.0),  # ordinary values, where summation order shows
        st.floats(0.0, 1e3),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-10 ** 6, 10 ** 6).map(float),
        st.floats(1e15, 1e300) | st.floats(-1e300, -1e15),
        st.sampled_from([0.0, -0.0, 0.1, 1e15, 999999999999999.0, float("nan"),
                         float("inf"), -float("inf")]))
    required = CSV_COLUMNS[:5]

    @st.composite
    def row_sets(draw):
        seeds = draw(st.integers(1, 12))
        # each optional column is always, never or sometimes present
        policy = {col: draw(st.sampled_from(("all", "none", "mixed")))
                  for col in OPTIONAL_COLUMNS}

        def optional(col, values):
            if policy[col] == "none" or (policy[col] == "mixed"
                                         and draw(st.booleans())):
                return None
            return draw(values)

        sets = []
        for _ in range(seeds):
            rows = []
            for _ in range(draw(st.integers(0, 6))):
                vals = {col: draw(cell) for col in required}
                vals.update({col: optional(col, cell) for col in OPTIONAL_COLUMNS[:-1]})
                vals["wall_ns"] = optional("wall_ns", st.integers(0, 2 ** 53))
                vals["diverged"] = draw(st.booleans())
                rows.append(TrajectoryRecord(**vals))
            sets.append(rows)
        return sets

    return hypothesis, row_sets()


def test_columnar_aggregate_and_csv_match_row_wise_reference():
    hypothesis, row_sets = _row_sets()

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
    @hypothesis.given(row_sets)
    def check(sets):
        meta = {"method": "gtrr", "seeds": len(sets)}
        trajectories = [Trajectory.from_rows(rows) for rows in sets]
        for rows, traj in zip(sets, trajectories):
            assert to_csv(traj, meta) == _row_to_csv(rows, meta)
        assert to_csv(aggregate(trajectories), meta) == \
            _row_to_csv(_row_aggregate(sets), meta)

    check()


def test_read_csv_round_trips_cell_and_presence():
    hypothesis, row_sets = _row_sets()

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
    @hypothesis.given(row_sets)
    def check(sets):
        for rows in sets:
            traj = Trajectory.from_rows(rows)
            back = read_csv(io.StringIO(to_csv(traj, {"seed": 0})))
            assert back == traj
            for col in CSV_COLUMNS:
                assert np.array_equal(back.present(col), traj.present(col))

    check()


def test_read_csv_from_a_written_file(tmp_path, ring8):
    obj = make_quadratic(8, 3, 4, seed=4, condition=2.0)
    traj = run("gtrr", obj, ring8, ConstantSchedule(0.02), 12, seed=0,
               inner_metrics=True, transform=transform_data(gtrr_operator(ring8)))
    path = tmp_path / "run.csv"
    write_csv(path, traj, {"method": "gtrr"})
    back = read_csv(path)
    assert back == traj and len(back) == 12 + 1 + 12 * 2
    assert to_csv(back, {"method": "gtrr"}) == path.read_text()


_HEADER = ",".join(CSV_COLUMNS) + "\n"


@pytest.mark.parametrize("text,message", [
    ("t,alpha\n0,1\n", "CSV header is not"),
    (_HEADER + "0,0.1,1,1,0,,,,,,0\n0,1\n", "every CSV row needs 11 fields"),
    (_HEADER + ",0.1,1,1,0,,,,,,0\n", "column 't' cannot be absent"),
], ids=["header", "short-row", "absent-t"])
def test_read_csv_rejects_a_bad_header_short_row_or_absent_value(text, message):
    with pytest.raises(ValueError, match=message):
        read_csv(io.StringIO(text))


def test_trajectory_rows_and_columns():
    traj = Trajectory.from_rows([
        TrajectoryRecord(0, 0.1, 4.0, 4.0, 1.0, None, 2.0, None, None, 7),
        TrajectoryRecord(1, 0.1, float("nan"), 4.0, float("inf"))])
    assert len(traj) == 2
    first, last = traj[0], traj[-1]
    assert first.fgap_mean is None and first.fgap_bar == 2.0 and first.wall_ns == 7
    assert type(first.wall_ns) is int and type(last.diverged) is bool
    assert np.isnan(last.grad_norm_sq) and last.consensus_sq == float("inf")
    assert last.fgap_bar is None and last.wall_ns is None
    assert [r.t for r in traj] == [0.0, 1.0]
    with pytest.raises(IndexError):
        traj[2]
    assert list(traj.present("fgap_bar")) == [True, False]
    assert list(traj.present("t")) == [True, True]
    col = traj.column("grad_norm_sq")
    assert col.shape == (2,)
    with pytest.raises(ValueError):
        col[0] = 1.0
    traj.flag_diverged()
    assert traj[-1].diverged and not traj[0].diverged
    with pytest.raises(ValueError, match="cannot be absent"):
        Trajectory.from_rows([TrajectoryRecord(2, 0.1, None, 1.0, 1.0)])


def test_record_fills_rows_in_order_until_full(quad8, rng):
    traj = Trajectory(2)
    assert len(traj) == 0 and not traj
    X = rng.normal(size=(8, 4))
    first = record(traj, X, 0, 0.1, quad8, wall_ns=5)
    assert len(traj) == 1 and traj[0] == first
    text = to_csv(traj)
    second = record(traj, 2.0 * X, 1, 0.1, quad8)
    assert traj[1] == second and second.wall_ns is None
    # rows filled or flagged after a render show in the next one
    assert to_csv(traj).startswith(text) and len(to_csv(traj)) > len(text)
    traj.flag_diverged()
    assert to_csv(traj).endswith(",1\n")
    with pytest.raises(IndexError, match="full"):
        record(traj, X, 2, 0.1, quad8)


def test_one_seed_mean_renders_as_its_run(ring8):
    traj = run("gtrr", make_quadratic(8, 3, 4, seed=4), ring8, ConstantSchedule(0.02),
               10, seed=0, timings=True)
    rows = to_csv(traj, {"seed": 0}).split("\n", 1)[1]
    mean = aggregate([traj])
    assert mean == traj and to_csv(mean, {"seeds": "0"}).split("\n", 1)[1] == rows


def test_diverged_row_keeps_nan_apart_from_absent(ring8):
    traj = run("gtrr", make_quadratic(8, 5, 4, seed=1, condition=10), ring8,
               ConstantSchedule(1e200), 50, seed=0)
    last = to_csv(traj).splitlines()[-1]
    assert last == "1,1e+200,nan,309.790680439199,nan,nan,nan,,,,1"
    assert np.isnan(traj[-1].fgap_bar) and traj[-1].q_t is None


def test_rate_fit_message_text():
    rows = [TrajectoryRecord(t, 0.1, 1.0, 1.0, 0.0, 1.0 / t) for t in range(1, 12)]
    rows.append(TrajectoryRecord(12, 0.1, 1.0, 1.0, 0.0, -1.0))
    with pytest.raises(ValueError) as err:
        rate_fit(Trajectory.from_rows(rows), "fgap_mean", (1, 12))
    assert str(err.value) == "non-positive fgap_mean=-1.0 at t=12 in window"
    rows[-1] = TrajectoryRecord(11.5, 0.1, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError) as err:
        rate_fit(Trajectory.from_rows(rows), "fgap_mean", (1, 12))
    assert str(err.value) == "non-positive fgap_mean=0.0 at t=11.5 in window"
    with pytest.raises(ValueError) as err:
        rate_fit(Trajectory.from_rows(rows), "fgap_bar", (1, 12))
    assert str(err.value) == "need at least 10 records in window, got 0"
