import numpy as np
import pytest

from netshuffle import algorithms
from netshuffle.algorithms import (METHODS, CentralizedRR, DRR, DSGD, DSGT, ED,
                                   EDRR, EDRRPrimalDual, GTRR, initial_iterates,
                                   make_method, run)
from netshuffle.objective import make_quadratic
from netshuffle.shuffling import PermutationStream
from netshuffle.stepsize import ConstantSchedule, DecreasingSchedule
from netshuffle.topology import build_graph, lazify, metropolis_weights

ALPHA = 0.02


def single_agent_pair(seed=3):
    obj = make_quadratic(1, 6, 4, seed=seed, condition=3.0)
    mix = metropolis_weights(build_graph("complete", n=1))
    return obj, mix


def epoch_trajectory(machine, T, alpha=ALPHA, probe=None):
    traj = []
    for t in range(T):
        machine.epoch(t, alpha, probe=probe)
        traj.append(machine.X.copy())
    return traj


def test_crr_single_component_is_full_gradient_step():
    obj = make_quadratic(4, 1, 3, seed=1, condition=2.0)
    mix = metropolis_weights(build_graph("ring", n=4))
    crr = CentralizedRR(obj, mix, PermutationStream(0, "rr"))
    x0 = np.zeros(3)
    crr.reset(np.tile(x0, (4, 1)))
    crr.epoch(0, ALPHA)
    expected = x0 - ALPHA * obj.grad(x0)
    assert np.allclose(crr.X[0], expected, atol=1e-14)


def test_crr_gd_contraction_at_inverse_lipschitz():
    # n=1, m=1: one component is one full pass, so an epoch is one exact
    # gradient step with contraction factor (1 - mu/L)
    obj = make_quadratic(1, 1, 4, seed=3, condition=3.0)
    mix = metropolis_weights(build_graph("complete", n=1))
    L, mu = obj.constants.L, obj.constants.mu
    crr = CentralizedRR(obj, mix, PermutationStream(0, "rr"))
    x0 = obj.x_star + np.ones(obj.p)
    crr.reset(x0[None, :])
    err0 = np.linalg.norm(x0 - obj.x_star)
    crr.epoch(0, 1.0 / L)
    err1 = np.linalg.norm(crr.X[0] - obj.x_star)
    assert err1 <= err0 * (1.0 - mu / L) + 1e-12


def test_epoch_determinism_same_seed():
    obj = make_quadratic(6, 4, 3, seed=2, condition=2.0)
    mix = metropolis_weights(build_graph("ring", n=6))
    x0 = initial_iterates(obj, "same", 1.0, init_seed=2)
    runs = []
    for _ in range(2):
        gt = GTRR(obj, mix, PermutationStream(7, "rr"))
        gt.reset(x0)
        runs.append(np.stack(epoch_trajectory(gt, 3)))
    assert np.array_equal(runs[0], runs[1])


@pytest.mark.parametrize("name", ["gtrr", "drr", "edrr", "edrr-pd"])
def test_rr_methods_single_agent_match_centralized(name):
    obj, mix = single_agent_pair()
    x0 = np.full((1, obj.p), 2.0)
    crr = CentralizedRR(obj, mix, PermutationStream(5, "rr"))
    crr.reset(x0)
    other = make_method(name, obj, mix, seed=5)
    other.reset(x0)
    t_ref = epoch_trajectory(crr, 4)
    t_other = epoch_trajectory(other, 4)
    for a, b in zip(t_ref, t_other):
        assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("name", ["crr", "drr", "gtrr", "edrr", "edrr-pd"])
def test_mean_iterate_identity(name, quad8, ring8, lazy_ring8):
    mix = lazy_ring8 if name.startswith("edrr") else ring8
    machine = make_method(name, quad8, mix, seed=4)
    machine.reset(initial_iterates(quad8, "same", 1.0, init_seed=4))
    worst = 0.0

    def probe(info):
        nonlocal worst
        expected = info.X_before.mean(axis=0) - info.alpha * info.grads.mean(axis=0)
        worst = max(worst, np.abs(info.X_after.mean(axis=0) - expected).max())

    epoch_trajectory(machine, 10, probe=probe)
    assert worst < 1e-10


def test_dsgd_matches_drr_single_component():
    # m=1: the iid draw and the trivial permutation pick the same component
    obj = make_quadratic(5, 1, 3, seed=6, condition=2.0)
    mix = metropolis_weights(build_graph("ring", n=5))
    x0 = initial_iterates(obj, "same", 1.0, init_seed=6)
    drr = DRR(obj, mix, PermutationStream(3, "rr"))
    dsgd = DSGD(obj, mix, PermutationStream(3, "iid"))
    drr.reset(x0)
    dsgd.reset(x0)
    for a, b in zip(epoch_trajectory(drr, 3), epoch_trajectory(dsgd, 3)):
        assert np.array_equal(a, b)


def test_dsgt_zero_variance_converges_exactly():
    # identical components per agent: tracking becomes deterministic
    obj = make_quadratic(8, 4, 3, seed=7, condition=1.0, hetero=2.0, spread=0.0)
    mix = metropolis_weights(build_graph("ring", n=8))
    dsgt = DSGT(obj, mix, PermutationStream(0, "iid"))
    dsgt.reset(initial_iterates(obj, "same", 1.0, init_seed=7))
    epoch_trajectory(dsgt, 300, alpha=0.05)
    xbar = dsgt.X.mean(axis=0)
    assert np.linalg.norm(obj.grad(xbar)) < 1e-8


def test_edrr_strict_mode_differs_after_first_epoch(quad8, lazy_ring8):
    x0 = initial_iterates(quad8, "same", 1.0, init_seed=11)
    a = EDRR(quad8, lazy_ring8, PermutationStream(11, "rr"))
    b = EDRR(quad8, lazy_ring8, PermutationStream(11, "rr"), strict_alg2=True)
    a.reset(x0)
    b.reset(x0)
    ta = epoch_trajectory(a, 3)
    tb = epoch_trajectory(b, 3)
    assert np.allclose(ta[0], tb[0])       # identical during epoch 0
    assert not np.allclose(ta[1], tb[1])   # reset changes epoch 1 onward


def test_exact_diffusion_rejects_indefinite_w(quad8, ring8):
    for cls in (EDRR, EDRRPrimalDual):
        with pytest.raises(ValueError, match="lazify"):
            cls(quad8, ring8, PermutationStream(0, "rr"))


def test_sampling_compatibility_enforced(quad8, ring8):
    with pytest.raises(ValueError, match="rr or once"):
        make_method("gtrr", quad8, ring8, seed=0, sampling="iid")
    with pytest.raises(ValueError, match="iid"):
        DSGD(quad8, ring8, PermutationStream(0, "rr"))


def test_run_zero_epochs_single_record(quad8, ring8):
    records = run("gtrr", quad8, ring8, ConstantSchedule(0.01), 0, seed=0)
    assert len(records) == 1
    assert records[0].t == 0 and not records[0].diverged


def test_run_divergence_flagged(ring8):
    obj = make_quadratic(8, 3, 4, seed=5, condition=2.0)
    records = run("drr", obj, ring8, ConstantSchedule(50.0), 50, seed=0,
                  init_scale=1.0)
    assert records[-1].diverged
    assert len(records) < 52


def test_run_decreasing_monotone_trend(ring8):
    obj = make_quadratic(8, 5, 4, seed=8, condition=2.0)
    sched = DecreasingSchedule(theta=20.0, K=650.0, mu=obj.constants.mu, m=5)
    records = run("gtrr", obj, ring8, sched, 200, seed=1, init_scale=3.0)
    gaps = {r.t: r.fgap_bar for r in records}
    assert gaps[200] < gaps[100]


def test_run_inner_metrics_density(quad8, ring8):
    records = run("gtrr", quad8, ring8, ConstantSchedule(0.01), 3, seed=0,
                  inner_metrics=True)
    # 4 boundary records + 3 epochs x (m-1) interior records
    assert len(records) == 4 + 3 * (quad8.m - 1)
    fr = [r.t for r in records if r.t != int(r.t)]
    assert len(fr) == 3 * (quad8.m - 1)


def test_methods_registry_complete():
    assert set(METHODS) == {"crr", "dsgd", "drr", "dsgt", "gtrr", "ed",
                            "edrr", "edrr-pd"}


def test_initial_iterates_modes():
    obj = make_quadratic(4, 2, 3, seed=0)
    same = initial_iterates(obj, "same", 2.0, init_seed=1, run_seed=9)
    assert np.all(same == same[0])
    rand = initial_iterates(obj, "random", 2.0, init_seed=1, run_seed=9)
    assert not np.all(rand == rand[0])
    assert np.array_equal(
        rand, initial_iterates(obj, "random", 2.0, init_seed=1, run_seed=9))
