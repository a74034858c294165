"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured margins.
"""

import dataclasses
import time

import numpy as np

from netshuffle import harness, metrics, stepsize
from netshuffle.algorithms import run
from netshuffle.objective import (make_logistic, make_nonconvex_logistic,
                                  make_quadratic)
from netshuffle.stepsize import ConstantSchedule, DecreasingSchedule
from netshuffle.topology import build_graph, lazify, metropolis_weights
from netshuffle.unified import edrr_operator, gtrr_operator, transform_data


def report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def passed_checks(results, names, tol):
    """The named checks of a harness suite, each asserted present, passed and
    within `tol`."""
    found = {c.name: c for c in results}
    for name in names:
        assert name in found, name
        assert found[name].passed and found[name].measured <= tol, found[name].line()
    return [found[name] for name in names]


EQUIVALENCES = ("gtrr == abc(W, I-W, W)", "gtrr == transformed recursion",
                "edrr x-only == primal-dual", "edrr == abc(W, (I-W)^1/2, I)",
                "edrr == transformed recursion")


def test_criterion_01_abc_equivalence_oracle():
    start = time.perf_counter()
    checks = passed_checks(harness.verify_abc(), EQUIVALENCES, 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "deviations " + ", ".join(f"{c.name} {c.measured:.2e}" for c in checks)
              + f" (tol 1e-9), {elapsed:.2f}s < 1s")


def test_criterion_02_gradient_tracking_identity():
    check, = passed_checks(harness.verify_abc(seed=1, epochs=50),
                           ["tracker average equals mean shuffled gradient"], 1e-10)
    report(2, f"tracker-average deviation {check.measured:.2e} over 50 epochs (tol 1e-10)")


def test_criterion_03_mean_iterate_identity():
    names = [f"mean-iterate identity {m}" for m in ("crr", "drr", "gtrr", "edrr")]
    checks = passed_checks(harness.verify_abc(seed=1, epochs=50), names, 1e-10)
    report(3, "mean-iterate deviations " +
              ", ".join(f"{c.name.split()[-1]} {c.measured:.2e}" for c in checks) + " (tol 1e-10)")


def test_criterion_04_without_replacement_variance_oracle():
    names = [f"without-replacement variance m={m}" for m in range(2, 7)]
    checks = passed_checks(harness.verify_rr_variance(rng_seed=17), names, 1e-12)
    worst = max(c.measured for c in checks)
    report(4, f"enumeration vs closed form, worst dev {worst:.2e} (tol 1e-12)")


def test_criterion_05_spectral_transform_constants():
    worst_gt, worst_ed = 0.0, 0.0
    v2_max, vinv2_max = 0.0, 0.0
    for n in (4, 8, 16):
        grids = {4: (2, 2), 8: (2, 4), 16: (4, 4)}
        mats = [metropolis_weights(build_graph("ring", n=n)),
                metropolis_weights(build_graph("grid", rows=grids[n][0],
                                               cols=grids[n][1])),
                metropolis_weights(build_graph("complete", n=n))]
        for mix in mats:
            td = transform_data(gtrr_operator(mix))
            worst_gt = max(worst_gt, abs(td.gamma - mix.spectral.lam))
            v2_max = max(v2_max, td.norm_V2)
            vinv2_max = max(vinv2_max, td.norm_Vinv2)
            lazy = lazify(mix, 0.5)
            td_ed = transform_data(edrr_operator(lazy))
            worst_ed = max(worst_ed,
                           abs(td_ed.gamma - np.sqrt(lazy.spectral.lam)))
    assert worst_gt <= 1e-9 and worst_ed <= 1e-9
    assert v2_max <= 3.0 and vinv2_max <= 9.0
    report(5, f"gamma dev gtrr {worst_gt:.2e}, edrr {worst_ed:.2e} (tol 1e-9); "
              f"measured ||V||^2 <= {v2_max:.3f} (<=3), "
              f"||V^-1||^2 <= {vinv2_max:.3f} (<=9)")


def test_criterion_06_pl_rate_scaled():
    start = time.perf_counter()
    n, m, p, T = 16, 10, 5, 500
    ring = metropolis_weights(build_graph("ring", n=n))
    obj = make_quadratic(n, m, p, seed=2, condition=1.0, hetero=1.0, spread=1.0)
    mu = obj.constants.mu
    # the two methods live in different headroom regimes (the tracking
    # variant's reshuffling floor sits ~45x above exact diffusion's), so each
    # gets an initial scale placing its measured decay inside the window
    setups = {
        "gtrr": (ring, gtrr_operator, 3e4),
        "edrr": (lazify(ring, 0.27), edrr_operator, 1.5),
    }
    lines = []
    for method, (mix, opf, init_scale) in setups.items():
        td = transform_data(opf(mix))
        K = float(np.ceil(32.0 / (1.0 - td.gamma ** 2)))  # leading offset floor
        sched = DecreasingSchedule(theta=20.0, K=K, mu=mu, m=m)
        per_seed = [run(method, obj, mix, sched, T, seed,
                        init_scale=init_scale, init_seed=2)
                    for seed in range(10)]
        mean = metrics.aggregate(per_seed)
        fit = metrics.rate_fit(mean, "fgap_mean", (50, 500))
        assert fit.slope <= -1.7, method
        assert fit.r2 >= 0.95, method
        lines.append(f"{method} K={K:.0f} slope {fit.slope:.2f} r2 {fit.r2:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(6, "; ".join(lines) + f" (slope tol -1.7, r2 tol 0.95), "
                                 f"{elapsed:.1f}s < 30s")


def test_criterion_07_nonconvex_rate_in_horizon():
    ring = metropolis_weights(build_graph("ring", n=16))
    obj = make_nonconvex_logistic(16, 10, 10, seed=3, eta=0.2,
                                  heterogeneous=True, scale=1.0)
    td = transform_data(gtrr_operator(ring))
    horizons = (64, 128, 256, 512)
    mins = []
    for T in horizons:
        tc = stepsize.theory_constants(td, 10, obj.constants.L, None, T)
        sched = ConstantSchedule(tc.alpha_ncvx)
        vals = [run("gtrr", obj, ring, sched, T, seed,
                    init_scale=0.0, init_seed=3)[-1].min_grad_norm_sq
                for seed in range(10)]
        mins.append(float(np.mean(vals)))
    assert all(a > b for a, b in zip(mins, mins[1:])), mins
    fit = metrics.fit_powerlaw(horizons, mins)
    assert fit.slope <= -0.55
    report(7, f"min grad^2 {['%.3e' % v for v in mins]} over T={horizons}, "
              f"slope {fit.slope:.2f} (tol -0.55), monotone")


def test_criterion_08_reshuffled_beats_unshuffled():
    n, m, T = 16, 64, 300
    ring = metropolis_weights(build_graph("ring", n=n))
    lazy = lazify(ring, 0.5)
    obj = make_logistic(n, m, 10, seed=4, rho=0.2, heterogeneous=True, scale=3.0)
    sched = ConstantSchedule(0.001)
    gaps = {}
    for method, mix in (("gtrr", ring), ("dsgt", ring),
                        ("edrr", lazy), ("ed", lazy)):
        vals = [run(method, obj, mix, sched, T, seed,
                    init_scale=0.0, init_seed=4)[-1].fgap_bar
                for seed in range(10)]
        gaps[method] = float(np.mean(vals))
    r_gt = gaps["dsgt"] / gaps["gtrr"]
    r_ed = gaps["ed"] / gaps["edrr"]
    assert r_gt >= 2.0 and r_ed >= 2.0
    report(8, f"final mean fgap: gtrr {gaps['gtrr']:.2e} vs dsgt "
              f"{gaps['dsgt']:.2e} ({r_gt:.0f}x), edrr {gaps['edrr']:.2e} vs "
              f"ed {gaps['ed']:.2e} ({r_ed:.0f}x); both >= 2x")


def test_criterion_09_topology_sensitivity():
    obj = make_quadratic(16, 10, 5, seed=2, condition=1.0, hetero=1.0, spread=1.0)
    ring = metropolis_weights(build_graph("ring", n=16))
    grid = metropolis_weights(build_graph("grid", rows=4, cols=4))
    sched = ConstantSchedule(0.01)
    cons = {}
    for name, mix in (("ring", ring), ("grid", grid)):
        vals = [run("gtrr", obj, mix, sched, 200, seed,
                    init_scale=1.0, init_seed=2)[-1].consensus_sq
                for seed in range(10)]
        cons[name] = float(np.mean(vals))
    assert cons["ring"] > cons["grid"]
    report(9, f"consensus_sq at T=200: ring {cons['ring']:.2e} > "
              f"grid {cons['grid']:.2e} "
              f"({cons['ring'] / cons['grid']:.1f}x)")


def test_criterion_10_exactness_contrast():
    # across-agent heterogeneity with identical components inside each agent:
    # the tracked and dual-corrected methods converge to exact consensus while
    # plain decentralized SGD keeps an order-alpha bias
    n, m, T = 16, 250, 500
    ring = metropolis_weights(build_graph("ring", n=n))
    lazy = lazify(ring, 0.5)
    obj = make_quadratic(n, m, 5, seed=6, condition=1.0, hetero=3.0, spread=0.0)
    td_g = transform_data(gtrr_operator(ring))
    td_e = transform_data(edrr_operator(lazy))
    a_g = stepsize.theory_constants(td_g, m, obj.constants.L, obj.constants.mu,
                                    T).alpha_max_ncvx
    a_e = stepsize.theory_constants(td_e, m, obj.constants.L, obj.constants.mu,
                                    T).alpha_max_ncvx
    out = {}
    for method, mix, alpha in (("gtrr", ring, a_g), ("edrr", lazy, a_e),
                               ("dsgd", ring, a_g)):
        recs = run(method, obj, mix, ConstantSchedule(alpha), T, seed=0,
                   init_scale=1.0, init_seed=6)
        assert not recs[-1].diverged
        out[method] = recs[-1].consensus_sq
    assert out["gtrr"] < 1e-10
    assert out["edrr"] < 1e-10
    assert out["dsgd"] > 1e-6
    report(10, f"consensus_sq at T=500: gtrr {out['gtrr']:.1e} < 1e-10, "
               f"edrr {out['edrr']:.1e} < 1e-10, dsgd {out['dsgd']:.1e} > 1e-6")


def test_criterion_11_sweep_determinism(tmp_path):
    base = harness.ExperimentConfig(
        objective="logistic", n=8, m=6, dim=4, rho=0.2, data_seed=5,
        graph="ring", methods=("gtrr", "dsgd"), epochs=12, seeds=(0, 1, 2),
        stepsize="const:0.005",
    )
    for rerun in ("a", "b"):
        harness.run_sweep(dataclasses.replace(base, outdir=str(tmp_path / rerun)))
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(names) == 8  # 2 methods x (3 seeds + 1 mean)
    for name in names:
        ref = (tmp_path / "a" / name).read_bytes()
        assert (tmp_path / "b" / name).read_bytes() == ref
    report(11, f"{len(names)} CSVs byte-identical across reruns")
