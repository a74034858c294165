import math

import numpy as np
import pytest

from netshuffle.stepsize import (ConstantSchedule, DecreasingSchedule,
                                 HarmonicSchedule, PlateauSchedule,
                                 parse_schedule, recommend_alpha,
                                 theory_constants)
from netshuffle.topology import build_graph, lazify, metropolis_weights
from netshuffle.unified import edrr_operator, gtrr_operator, transform_data


@pytest.fixture(scope="module")
def td_ring16():
    mix = metropolis_weights(build_graph("ring", n=16))
    return transform_data(gtrr_operator(mix))


@pytest.fixture(scope="module")
def td_edrr16():
    mix = lazify(metropolis_weights(build_graph("ring", n=16)), 0.5)
    return transform_data(edrr_operator(mix))


def test_constant_schedule():
    sched = ConstantSchedule(0.001)
    assert all(sched.alpha(t) == 0.001 for t in (0, 5, 1000))


def test_harmonic_schedule_figure_values():
    sched = HarmonicSchedule(30.0, 300.0)
    assert sched.alpha(0) == pytest.approx(1.0 / 300.0)
    assert sched.alpha(10) == pytest.approx(1.0 / 600.0)


def test_decreasing_schedule_product_invariant():
    sched = DecreasingSchedule(theta=20.0, K=324.0, mu=0.5, m=10)
    base = sched.alpha(0) * (0 + 324.0)
    for t in (1, 7, 100, 4999):
        assert sched.alpha(t) * (t + 324.0) == pytest.approx(base, rel=1e-15)


def test_plateau_ladder_demotions():
    sched = PlateauSchedule(levels=(1 / 50, 1 / 250, 1 / 1000), patience=3)
    # improving history keeps the top level
    hist = [10.0, 9.0, 8.0, 7.0]
    assert sched.alpha(4, hist) == pytest.approx(1 / 50)
    # two stretches of stagnation demote twice, then the ladder clamps
    hist = [10.0] + [10.0] * 3 + [10.0] * 3 + [10.0] * 9
    assert sched.alpha(len(hist), hist) == pytest.approx(1 / 1000)
    assert sched.alpha(100, hist + [10.0] * 50) == pytest.approx(1 / 1000)


def _plateau_full_scan(sched, history):
    """The level after scanning all of `history` from the start: the
    reference for the incremental scan `PlateauSchedule.alpha` keeps."""
    idx, best, stale = 0, math.inf, 0
    for value in history:
        if value < best * (1.0 - sched.threshold) or best == math.inf:
            best = min(best, value)
            stale = 0
        else:
            stale += 1
            if stale >= sched.patience:
                idx = min(idx + 1, len(sched.levels) - 1)
                stale = 0
    return sched.levels[idx]


def test_plateau_incremental_scan_matches_full_scan():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(
        history=st.lists(st.floats(-1e3, 1e3) | st.sampled_from([math.inf, math.nan]),
                         max_size=80),
        patience=st.integers(1, 6), threshold=st.sampled_from([0.0, 0.01, 0.3]),
        cuts=st.lists(st.integers(0, 80), max_size=4))
    def check(history, patience, threshold, cuts):
        sched = PlateauSchedule((0.1, 0.05, 0.02, 0.01), patience, threshold)
        grown = []
        for value in history:
            grown.append(value)
            assert sched.alpha(len(grown), grown) == _plateau_full_scan(sched, grown)
        for cut in cuts:
            # a new prefix list, the grown list again, and the grown list
            # cut back and regrown with other entries are each scanned anew
            prefix = history[:cut]
            assert sched.alpha(cut, prefix) == _plateau_full_scan(sched, prefix)
            assert sched.alpha(len(grown), grown) == _plateau_full_scan(sched, grown)
            del grown[cut:]
            grown.extend(v * 0.5 + 1.0 for v in history[cut:])
            assert sched.alpha(len(grown), grown) == _plateau_full_scan(sched, grown)

    check()


def test_plateau_rejects_increasing_ladder():
    with pytest.raises(ValueError):
        PlateauSchedule(levels=(0.01, 0.1))


@pytest.mark.parametrize("build", [
    lambda: ConstantSchedule(0.0), lambda: ConstantSchedule(-0.1),
    lambda: ConstantSchedule(math.nan), lambda: ConstantSchedule(math.inf),
    lambda: HarmonicSchedule(0.0, 0.0), lambda: HarmonicSchedule(-1.0, 1.0),
    lambda: HarmonicSchedule(math.inf, 1.0),
    lambda: DecreasingSchedule(theta=0.0, K=5.0, mu=0.5, m=10),
    lambda: DecreasingSchedule(theta=20.0, K=math.nan, mu=0.5, m=10),
    lambda: PlateauSchedule(levels=(0.1, 0.0)), lambda: PlateauSchedule(levels=(math.inf,))])
def test_schedules_reject_bad_values_when_built(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_parse_schedule_forms():
    assert isinstance(parse_schedule("const:0.001"), ConstantSchedule)
    sched = parse_schedule("plateau:1/50,1/250,1/1000")
    assert sched.levels == (1 / 50, 1 / 250, 1 / 1000)
    h = parse_schedule("harmonic:30,300")
    assert (h.a, h.b) == (30.0, 300.0)
    d = parse_schedule("dec:20,324", mu=0.5, m=10)
    assert isinstance(d, DecreasingSchedule)
    assert parse_schedule("harmonic:0,2").alpha(7) == 0.5  # a = 0 is admitted
    for spec in ("dec:1", "harmonic:1", "const:1,2", "plateau:"):
        with pytest.raises(ValueError, match="expected"):
            parse_schedule(spec, mu=0.5, m=10)
    with pytest.raises(ValueError):
        parse_schedule("dec:20,324")
    with pytest.raises(ValueError):
        parse_schedule("zigzag:1")


def test_constants_identity_c3(td_ring16):
    tc = theory_constants(td_ring16, m=10, L=1.0, mu=1.0, T=500)
    assert tc.C3 == 12.0 * tc.C4 + tc.C1  # bitwise: C3 is defined this way
    for name in ("C1", "C2", "C3", "C4", "alpha_max_ncvx", "beta", "alpha_ncvx"):
        value = getattr(tc, name)
        assert np.isfinite(value) and value > 0.0


def test_constants_pure_function(td_ring16):
    a = theory_constants(td_ring16, m=10, L=1.3, mu=0.2, T=128)
    b = theory_constants(td_ring16, m=10, L=1.3, mu=0.2, T=128)
    assert a == b


def test_worst_case_gtrr_bounds_across_lambda():
    # with ||V||^2 = 3, ||V^{-1}||^2 = 9, ||La||^2 = lam^2 the analysis gives
    # C4 <= 27 and 1/3 <= C1 <= 42
    for n in (4, 8, 16, 32):
        mix = metropolis_weights(build_graph("ring", n=n))
        td = transform_data(gtrr_operator(mix))
        for m in (2, 10, 100):
            tc = theory_constants(td, m=m, L=1.0, mu=None, T=10, worst_case="gtrr")
            assert tc.C4 <= 27.0 + 1e-12
            assert 1.0 / 3.0 - 1e-12 <= tc.C1 <= 42.0 + 1e-12
            assert tc.gamma == pytest.approx(mix.spectral.lam)


def test_worst_case_edrr_uses_lambda_min(td_edrr16):
    tc = theory_constants(td_edrr16, m=10, L=1.0, mu=None, T=10, worst_case="edrr")
    assert tc.norm_V2 == 4.0
    assert tc.norm_Vinv2 == pytest.approx(2.0 / td_edrr16.spectral.lambda_min)
    assert tc.gamma == pytest.approx(math.sqrt(td_edrr16.spectral.lam))


def test_beta1_large_m_limit(td_ring16):
    lam = td_ring16.spectral.lam
    tc = theory_constants(td_ring16, m=10 ** 20, L=1.0, mu=None, T=10)
    assert tc.beta1 == pytest.approx(2.0 * math.sqrt(2.0) * (1.0 - lam ** 2),
                                     rel=1e-3)


def test_prescribed_alpha_respects_admissible_bound(td_ring16):
    for T in (8, 64, 512, 4096):
        tc = theory_constants(td_ring16, m=10, L=2.0, mu=None, T=T)
        assert tc.alpha_ncvx <= tc.alpha_max_ncvx * (1 + 1e-12)


def test_prescribed_alpha_scales_like_cube_root(td_ring16):
    a1 = theory_constants(td_ring16, m=10, L=1.0, mu=None, T=10 ** 7).alpha_ncvx
    a2 = theory_constants(td_ring16, m=10, L=1.0, mu=None, T=8 * 10 ** 7).alpha_ncvx
    assert a1 / a2 == pytest.approx(2.0, rel=0.02)


def test_k_floor_dominates_leading_term(td_ring16):
    tc = theory_constants(td_ring16, m=10, L=1.0, mu=1.0, T=500)
    floor = tc.k_floor(20.0)
    assert floor >= 32.0 / (1.0 - tc.gamma ** 2)
    with pytest.raises(ValueError):
        tc.k_floor(16.0)


def test_recommend_alpha_regimes(td_ring16):
    ncvx = recommend_alpha(td_ring16, 10, 1.0, None, 500, regime="ncvx")
    assert isinstance(ncvx, ConstantSchedule)
    pl = recommend_alpha(td_ring16, 10, 1.0, 1.0, 500, regime="pl-const")
    assert isinstance(pl, ConstantSchedule) and pl.value > 0
    dec = recommend_alpha(td_ring16, 10, 1.0, 1.0, 500, regime="pl-decreasing",
                          theta=20.0)
    assert isinstance(dec, DecreasingSchedule)
    assert dec.K >= 32.0 / (1.0 - td_ring16.gamma ** 2)
    assert dec.theta == 20.0
    with pytest.raises(ValueError):
        recommend_alpha(td_ring16, 10, 1.0, None, 500, regime="pl-const")
    with pytest.raises(ValueError):
        recommend_alpha(td_ring16, 10, 1.0, 1.0, 500, regime="nope")
