import numpy as np
import pytest

from netshuffle import algorithms
from netshuffle.algorithms import (METHODS, CentralizedRR, DRR, DSGD, DSGT, ED,
                                   EDRR, EDRRPrimalDual, GTRR, initial_iterates,
                                   make_method, run)
from netshuffle.objective import make_logistic, make_quadratic
from netshuffle.shuffling import PermutationStream
from netshuffle.stepsize import ConstantSchedule, DecreasingSchedule
from netshuffle.topology import build_graph, lazify, metropolis_weights, psd_sqrt

ALPHA = 0.02


def single_agent_pair(seed=3):
    obj = make_quadratic(1, 6, 4, seed=seed, condition=3.0)
    mix = metropolis_weights(build_graph("complete", n=1))
    return obj, mix


def machine_for(name, objective, mix, seed):
    """A selectable method by name, or "edrr-pd": the primal-dual ED-RR
    reference, which no name selects."""
    if name == "edrr-pd":
        return EDRRPrimalDual(objective, mix, PermutationStream(seed, "rr"))
    return make_method(name, objective, mix, seed=seed)


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
    other = machine_for(name, obj, mix, seed=5)
    other.reset(x0)
    t_ref = epoch_trajectory(crr, 4)
    t_other = epoch_trajectory(other, 4)
    for a, b in zip(t_ref, t_other):
        assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("name", ["crr", "drr", "gtrr", "edrr", "edrr-pd"])
def test_mean_iterate_identity(name, quad8, ring8, lazy_ring8):
    mix = lazy_ring8 if name.startswith("edrr") else ring8
    machine = machine_for(name, quad8, mix, seed=4)
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


class ShadowDualEDRR(EDRR):
    """x-only ED-RR as written with the shadow dual D and a dense
    (I-W)^(1/2): the reference for the running sum E = (I-W)^(1/2) D."""

    def __init__(self, objective, mix, stream, strict_alg2=False):
        super().__init__(objective, mix, stream, strict_alg2)
        self._b_half = psd_sqrt(np.eye(self.n) - mix.w)

    def reset(self, X0):
        super().reset(X0)
        self.D = np.zeros_like(self.X)

    def _step(self, ell, alpha, g):
        if self.strict_alg2 and ell == 0:
            self._prev_x = None
            self.D = np.zeros_like(self.X)
        ag = alpha * g
        half = self._half_step(ag)
        self._prev_x, self._prev_ag = self.X, ag
        self.X = self.W @ half
        self.D = self.D + self._b_half @ self.X


def lazy_ring(n):
    return lazify(metropolis_weights(build_graph("ring", n=n)), 0.5)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n", [8, 64])
def test_edrr_running_sum_keeps_shadow_dual_iterates(n, strict):
    obj = make_quadratic(n, 4, 3, seed=5, condition=2.0)
    mix = lazy_ring(n)
    x0 = initial_iterates(obj, "random", run_seed=5)
    machines = [cls(obj, mix, PermutationStream(5, "rr"), strict_alg2=strict)
                for cls in (EDRR, ShadowDualEDRR)]
    for machine in machines:
        machine.reset(x0)
    for t in range(10):
        for machine in machines:
            machine.epoch(t, ALPHA)
        assert np.array_equal(machines[0].X, machines[1].X)
        # E is the square root applied to the shadow dual
        ref = machines[1]
        E = ref._b_half @ ref.D
        assert np.linalg.norm(machines[0].E - E) <= 1e-11 * np.linalg.norm(E)


@pytest.mark.parametrize("n", [8, 64, 512])
def test_edrr_transformed_state_matches_closed_form(n):
    # S = W (x_prev - alpha g_prev + alpha grad F(1 xbar^T)) - X at every
    # epoch boundary, from the step the machine stored
    obj = make_quadratic(n, 4, 3, seed=5, condition=2.0)
    mix = lazy_ring(n)
    machine = make_method("edrr", obj, mix, seed=5)
    machine.reset(initial_iterates(obj, "random", run_seed=5))
    for t in range(10):
        machine.epoch(t, ALPHA)
        X, S = machine.abc_state(ALPHA)
        Gc = obj.grads_at_consensus(X.mean(axis=0))
        closed = mix.w @ (machine._prev_x - machine._prev_ag + ALPHA * Gc) - X
        assert np.linalg.norm(S - closed) <= 1e-11 * np.linalg.norm(closed)


# the arrays of a method's state that its updates replace
_STATE = ("X", "Y", "E", "_g", "_prev_x", "_prev_ag")


@pytest.mark.parametrize("name", sorted(METHODS))
def test_updates_never_write_into_arrays_already_held(name, lazy_ring8):
    # an update may work in place only on arrays it has just created: every
    # gradient the oracle returned, array a probe was handed, or array of the
    # state held at a step keeps its values
    obj = make_logistic(8, 4, 3, seed=2)
    machine = make_method(name, obj, lazy_ring8, seed=1,
                          sampling="rr" if METHODS[name].uses_rr else "iid")
    machine.reset(np.tile(np.random.default_rng(0).normal(size=3), (8, 1)))
    held = []

    def keep(arrays):
        held.extend((a, a.copy()) for a in arrays if isinstance(a, np.ndarray))

    def probe(info):
        keep((info.X_before, info.X_after, info.grads, info.Y))
        keep(getattr(machine, attr, None) for attr in _STATE)

    def perm_grads(X, samples, _grads=obj.perm_grads):
        g = _grads(X, samples)
        keep((g,))
        return g

    obj.perm_grads = perm_grads

    for t in range(3):
        keep(machine.abc_state(ALPHA) or ())
        machine.epoch(t, ALPHA, probe=probe)
    assert len(held) > 3 * 4 * 3
    for array, copy in held:
        assert array.tobytes() == copy.tobytes()


def test_exact_diffusion_rejects_indefinite_w(quad8, ring8):
    for cls, mode in ((ED, "iid"), (EDRR, "rr"), (EDRRPrimalDual, "rr")):
        with pytest.raises(ValueError, match="lazify"):
            cls(quad8, ring8, PermutationStream(0, mode))


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


# CSV digests of diverging runs, pinned when the check also tested
# np.isfinite before the norm bound: the bound alone flags the same rows.
# The quadratic digests were re-pinned when the family moved to its closed
# form, at the same diverged t; at x = -inf its gradient and gap read inf,
# where the matrix form's round-off off-diagonal Hessian gave NaN.
# Each case: method, make_quadratic arguments, stepsize, epochs, run keywords,
# the diverged t, the digest.
_QUAD = (8, 3, 4, 5, 2.0)      # n, m, p, seed, condition
_SCALAR = (8, 1, 1, 3, 1.0)    # one coordinate: crr's overflow stays +inf
DIVERGED_RUNS = {
    "drr passes the bound": (
        "drr", _QUAD, 5.0, 60, {}, 5,
        "bf08305f60096a12eb2250e9705384ff2b73f5eee327ef0db28582bb89f0be50"),
    "gtrr hits NaN": (
        "gtrr", _QUAD, 1e200, 60, {}, 1,
        "8466ef691b73aca502bd4580d884d9579c73fe698f4712603eea64b7254c5dc1"),
    "crr hits inf": (
        "crr", _SCALAR, 1e308, 20, {"init_scale": 100.0}, 1,
        "647be2caa2cea413391ef80930db9258d788c14e98d3eb97b7c1142249cbccd4"),
    "starts at NaN": (
        "gtrr", _QUAD, 0.01, 20, {"x0": np.full((8, 4), np.nan)}, 0,
        "49cdd08e560143483f0c32f9b66949b21a79b955e2735ccc65758b86ec6cf97d"),
    "starts at -inf": (
        "gtrr", _QUAD, 0.01, 20, {"x0": np.full((8, 4), -np.inf)}, 0,
        "7b086b0508450023d5fd38d5924ff45ad0df2bffe78d819c996d8cea3de8db39"),
    "starts past the bound": (
        "gtrr", _QUAD, 0.01, 20, {"x0": np.full((8, 4), 1e12)}, 0,
        "5ee326bdba990fcf95f43543a3f3e9d25a02e2a9d57ca3a518d5963e3161e105"),
}


@pytest.mark.parametrize("case", sorted(DIVERGED_RUNS))
def test_divergence_flagged_at_the_same_row_with_the_same_bytes(case, ring8):
    import hashlib

    from netshuffle.metrics import to_csv
    method, (n, m, p, seed, cond), alpha, T, kwargs, t_div, digest = DIVERGED_RUNS[case]
    obj = make_quadratic(n, m, p, seed=seed, condition=cond)
    with np.errstate(all="ignore"):
        traj = run(method, obj, ring8, ConstantSchedule(alpha), T, seed=0, **kwargs)
    assert len(traj) == t_div + 1
    assert traj[-1].diverged and traj[-1].t == t_div
    assert not traj.column("diverged")[:-1].any()
    assert hashlib.sha256(to_csv(traj).encode()).hexdigest() == digest


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


def test_dsgt_epochs_must_run_consecutively(quad8, ring8):
    machine = make_method("dsgt", quad8, ring8, seed=0)
    machine.reset(initial_iterates(quad8))
    with pytest.raises(ValueError, match="consecutively"):
        machine.epoch(1, 0.01)
    machine.epoch(0, 0.01)
    with pytest.raises(ValueError, match="consecutively"):
        machine.epoch(0, 0.01)
    machine.epoch(1, 0.01)


def test_methods_registry_complete():
    assert set(METHODS) == {"crr", "dsgd", "drr", "dsgt", "gtrr", "ed", "edrr"}


def test_initial_iterates_modes():
    obj = make_quadratic(4, 2, 3, seed=0)
    same = initial_iterates(obj, "same", 2.0, init_seed=1, run_seed=9)
    assert np.all(same == same[0])
    rand = initial_iterates(obj, "random", 2.0, init_seed=1, run_seed=9)
    assert not np.all(rand == rand[0])
    assert np.array_equal(
        rand, initial_iterates(obj, "random", 2.0, init_seed=1, run_seed=9))
