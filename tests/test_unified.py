import dataclasses

import numpy as np
import pytest

from netshuffle import algorithms
from netshuffle.algorithms import EDRRPrimalDual, initial_iterates
from netshuffle.objective import QuadraticObjective, make_quadratic
from netshuffle.shuffling import PermutationStream
from netshuffle.topology import build_graph, lazify, metropolis_weights
from netshuffle.unified import (AbcEngine, OperatorError, TransformedEngine,
                                build_operator, edrr_operator, gtrr_operator,
                                transform_data)

ALPHA = 0.02


def stream(seed=11):
    return PermutationStream(seed, "rr")


def trajectory(machine, T, alpha=ALPHA):
    out = []
    for t in range(T):
        machine.epoch(t, alpha)
        out.append(machine.X.copy())
    return out


# ---------------------------------------------------------------------------
# operator construction
# ---------------------------------------------------------------------------


def test_gtrr_preset_realizes_tracking_matrices(ring8):
    op = gtrr_operator(ring8)
    n = ring8.n
    assert np.allclose(op.A, ring8.w, atol=0)
    assert np.allclose(op.C, ring8.w, atol=0)
    assert np.linalg.norm(op.B - (np.eye(n) - ring8.w)) < 1e-12
    # null space of B is exactly the consensus span
    ones = np.ones(n)
    assert np.linalg.norm(op.B @ ones) < 1e-12
    sv = np.linalg.svd(op.B, compute_uv=False)
    assert sv[-2] > 1e-12  # only one vanishing direction


def test_edrr_preset_square_root(lazy_ring8):
    op = edrr_operator(lazy_ring8)
    n = lazy_ring8.n
    assert np.linalg.norm(op.B @ op.B - (np.eye(n) - lazy_ring8.w)) < 1e-12
    assert np.allclose(op.C, np.eye(n))


def test_edrr_preset_rejects_indefinite_w(ring8):
    with pytest.raises(OperatorError, match="lazify"):
        edrr_operator(ring8)


def test_zero_b_polynomial_rejected(ring8):
    # (A, B, C) = (W, 0, I) is the unshuffled-DGD shape; its B vanishes
    # everywhere, so the consensus-detection requirement fails
    with pytest.raises(OperatorError, match="null space|vanish"):
        build_operator((0.0, 1.0), (0.0,), (1.0,), ring8)


def test_non_stochastic_a_rejected(ring8):
    with pytest.raises(OperatorError, match="stochastic"):
        build_operator((0.0, 2.0), (1.0, -1.0), (1.0,), lazify(ring8, 0.5))


def test_negative_b2_rejected(ring8):
    with pytest.raises(OperatorError, match="negative eigenvalue"):
        build_operator((0.0, 1.0), (-1.0, 1.0), (0.0, 1.0), ring8)


# ---------------------------------------------------------------------------
# trajectory equivalences
# ---------------------------------------------------------------------------


def test_single_agent_abc_equals_centralized():
    obj = make_quadratic(1, 5, 3, seed=4, condition=2.0)
    mix = metropolis_weights(build_graph("complete", n=1))
    x0 = np.full((1, 3), 1.5)
    crr = algorithms.CentralizedRR(obj, mix, stream(4))
    crr.reset(x0)
    t_crr = trajectory(crr, 4)
    for opf in (gtrr_operator, edrr_operator):
        engine = AbcEngine(opf(mix), obj, stream(4))
        engine.reset(x0)
        for a, b in zip(trajectory(engine, 4), t_crr):
            assert np.max(np.abs(a - b)) < 1e-12
    # persistent preset: B = 0 keeps z pinned at zero on a single agent
    eng = AbcEngine(edrr_operator(mix), obj, stream(4))
    eng.reset(x0)
    eng.epoch(0, ALPHA)
    assert np.linalg.norm(eng.Z) == 0.0


def test_dual_first_step_is_sqrt_mix_of_first_iterate(quad8, lazy_ring8):
    pd = EDRRPrimalDual(quad8, lazy_ring8, stream())
    x0 = initial_iterates(quad8, "same", 1.0, init_seed=11)
    pd.reset(x0)
    captured = {}

    def probe(info):
        if info.ell == 0:
            captured["x1"] = info.X_after.copy()
            captured["d"] = pd.D.copy()

    pd.epoch(0, ALPHA, probe=probe)
    expected = pd._b_half @ captured["x1"]
    assert np.linalg.norm(captured["d"] - expected) < 1e-12


def test_consensus_stability_small_stepsize(quad8, lazy_ring8):
    pd = EDRRPrimalDual(quad8, lazy_ring8, stream(2))
    pd.reset(initial_iterates(quad8, "same", 1.0, init_seed=2))
    for t in range(50):
        pd.epoch(t, 0.005)
        spread = np.linalg.norm(pd.X - pd.X.mean(axis=0))
        assert np.isfinite(spread) and spread < 10.0


# ---------------------------------------------------------------------------
# spectral transform
# ---------------------------------------------------------------------------


def graph_suite():
    mats = []
    for n in (4, 8, 16):
        mats.append(("ring", n, metropolis_weights(build_graph("ring", n=n))))
        rows = {4: (2, 2), 8: (2, 4), 16: (4, 4)}[n]
        mats.append(("grid", n, metropolis_weights(
            build_graph("grid", rows=rows[0], cols=rows[1]))))
        mats.append(("complete", n, metropolis_weights(build_graph("complete", n=n))))
    return mats


@pytest.mark.parametrize("kind,n,mix", graph_suite(),
                         ids=lambda v: v if isinstance(v, str) else str(v))
def test_gtrr_gamma_equals_lambda(kind, n, mix):
    td = transform_data(gtrr_operator(mix))
    assert abs(td.gamma - mix.spectral.lam) < 1e-9
    assert td.norm_V2 <= 3.0 + 1e-12
    assert td.norm_Vinv2 <= 9.0 + 1e-12
    assert td.gamma < 1.0


@pytest.mark.parametrize("kind,n,mix", graph_suite(),
                         ids=lambda v: v if isinstance(v, str) else str(v))
def test_edrr_gamma_is_sqrt_lambda_on_pd(kind, n, mix):
    lazy = lazify(mix, 0.5)
    td = transform_data(edrr_operator(lazy))
    assert abs(td.gamma - np.sqrt(lazy.spectral.lam)) < 1e-9


@pytest.mark.parametrize("kind,n,mix", graph_suite(),
                         ids=lambda v: v if isinstance(v, str) else str(v))
def test_similarity_reconstructs_block_map(kind, n, mix):
    for op in (gtrr_operator(mix), edrr_operator(lazify(mix, 0.5))):
        td = transform_data(op)
        if n == 1:
            continue
        recon = td.V @ td.Gamma @ td.Vinv
        assert np.linalg.norm(recon - td.G) < 1e-9
        assert np.linalg.norm(td.V @ td.Vinv - np.eye(2 * (n - 1))) < 1e-10


def test_tracking_norm_bounds_across_twenty_graphs():
    # ||V||^2 <= 3 and ||V^{-1}||^2 <= 9 for the tracking preset over a
    # spread of ring/grid mixing matrices, lazified and not
    mats = []
    for n in (4, 5, 6, 8, 10, 12, 16, 20):
        mats.append(metropolis_weights(build_graph("ring", n=n)))
    for rows, cols in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (2, 8),
                       (4, 5)):
        mats.append(metropolis_weights(build_graph("grid", rows=rows, cols=cols)))
    mats.extend(lazify(m, tau) for m, tau in zip(mats[:4], (0.2, 0.4, 0.6, 0.8)))
    assert len(mats) >= 20
    for mix in mats:
        td = transform_data(gtrr_operator(mix))
        assert td.norm_V2 <= 3.0 + 1e-12
        assert td.norm_Vinv2 <= 9.0 + 1e-12
        assert abs(td.gamma - mix.spectral.lam) < 1e-9


def test_gamma_monotone_under_lazification(ring16):
    for opf in (gtrr_operator, lambda m: edrr_operator(m)):
        gammas = []
        for tau in np.arange(0.3, 0.95, 0.1):
            lazy = lazify(ring16, float(tau))
            gammas.append(transform_data(opf(lazy)).gamma)
        assert all(a < b for a, b in zip(gammas, gammas[1:]))


def test_gamma_vs_lambda_order_relation():
    # 1/(1-gamma^2) within a factor 4 of 1/(1-lambda) across the suite
    for kind, n, mix in graph_suite():
        if n == 1:
            continue
        pairs = [(transform_data(gtrr_operator(mix)).gamma, mix.spectral.lam)]
        lazy = lazify(mix, 0.5)
        pairs.append((transform_data(edrr_operator(lazy)).gamma, lazy.spectral.lam))
        for gamma, lam in pairs:
            ratio = (1.0 - lam) / (1.0 - gamma ** 2)
            assert 0.25 <= ratio <= 4.0


def test_edrr_transform_norms_match_analysis_bounds(ring16):
    # ||V||^2 ||V^{-1}||^2 <= 8 / lambda_min for the exact-diffusion preset
    lazy = lazify(ring16, 0.5)
    td = transform_data(edrr_operator(lazy))
    bound = 4.0 * 2.0 / lazy.spectral.lambda_min
    assert td.norm_V2 * td.norm_Vinv2 <= bound + 1e-9


def block_suite():
    """Operators over ring, star, complete and grid graphs, plain and
    lazified, under both presets; ED-RR only where W is PSD."""
    graphs = (("ring", build_graph("ring", n=9)), ("star", build_graph("star", n=7)),
              ("complete", build_graph("complete", n=6)),
              ("grid", build_graph("grid", rows=3, cols=4)))
    cases = []
    for kind, graph in graphs:
        for tau in (0.0, 0.5):
            mix = metropolis_weights(graph)
            mix = lazify(mix, tau) if tau else mix
            cases.append(pytest.param(gtrr_operator(mix), id=f"{kind}-tau{tau}-gtrr"))
            if mix.spectral.lambda_min >= -1e-12:
                cases.append(pytest.param(edrr_operator(mix), id=f"{kind}-tau{tau}-edrr"))
    return cases


@pytest.mark.parametrize("op", block_suite())
def test_block_transform_matches_dense(op, rng):
    td = transform_data(op)
    k = op.n - 1
    # nothing but uhat is stored at more than one 2x2 block per eigenvalue
    for field in dataclasses.fields(td):
        value = getattr(td, field.name)
        if isinstance(value, np.ndarray) and field.name != "uhat":
            assert value.size <= 4 * k, field.name
    assert td.norm_V2 == pytest.approx(np.linalg.norm(td.V, 2) ** 2, rel=1e-12)
    assert td.norm_Vinv2 == pytest.approx(np.linalg.norm(td.Vinv, 2) ** 2, rel=1e-12)
    for _ in range(5):
        X = rng.normal(size=(op.n, 3))
        S = rng.normal(size=(op.n, 3))
        dense = td.Vinv @ np.vstack([td.uhat.T @ X, (td.uhat.T @ S) / td.b_vals[:, None]])
        e = td.e_vector(X, S)
        assert e.shape == (2 * k, 3)
        assert np.max(np.abs(e - dense)) <= 1e-13 * max(1.0, np.max(np.abs(dense)))


def test_single_agent_transform_is_empty():
    mix = metropolis_weights(build_graph("complete", n=1))
    for op in (gtrr_operator(mix), edrr_operator(mix)):
        td = transform_data(op)
        assert td.norm_V2 == 1.0 and td.norm_Vinv2 == 1.0
        assert td.e_vector(np.ones((1, 4)), np.ones((1, 4))).shape == (0, 4)
        assert td.V.shape == (0, 0)


# ---------------------------------------------------------------------------
# e-vector machinery
# ---------------------------------------------------------------------------


def test_e_vector_zero_at_consensus(quad8, ring8):
    op = gtrr_operator(ring8)
    td = transform_data(op)
    X = np.tile(np.arange(4.0), (8, 1))
    S = np.zeros_like(X)
    e = td.e_vector(X, S)
    assert np.linalg.norm(e) < 1e-12


def test_consensus_error_bounded_by_transform(quad8, ring8, rng):
    td = transform_data(gtrr_operator(ring8))
    for _ in range(100):
        X = rng.normal(size=(8, 4))
        S = rng.normal(size=(8, 4))
        e = td.e_vector(X, S)
        consensus = float(np.sum((X - X.mean(axis=0)) ** 2))
        assert consensus <= td.consensus_bound(e) * (1 + 1e-12)


def test_transformed_one_step_recursion_matches_blocks(quad8, ring8):
    # advancing (x, s) and mapping to e equals Gamma e - alpha Vinv [...]
    op = gtrr_operator(ring8)
    td = transform_data(op)
    eng = TransformedEngine(op, quad8, stream(3))
    eng.reset(initial_iterates(quad8, "same", 1.0, init_seed=3))
    t = 0
    alpha = ALPHA
    eng.S, eng._anchor, AGc = eng._anchored_s(alpha)
    orders = eng.stream.epoch_orders(eng.n, t, eng.m)
    Gc = np.linalg.solve(op.A, AGc)
    for ell in range(eng.m):
        e_before = td.e_vector(eng.X, eng.S)
        g = quad8.perm_grads(eng.X, orders[:, ell])
        drive = np.vstack([
            (td.a_vals[:, None]) * (td.uhat.T @ (g - Gc)),
            np.zeros((eng.n - 1, eng.p)),
        ])
        predicted = td.Gamma @ e_before - alpha * (td.Vinv @ drive)
        X_new = eng.M @ eng.X - alpha * (op.A @ g) + alpha * AGc - eng.S
        eng.S = eng.S + op.B2 @ eng.X
        eng.X = X_new
        e_after = td.e_vector(eng.X, eng.S)
        assert np.linalg.norm(e_after - predicted) < 1e-9


def test_s_consistent_with_z_form_each_step(quad8, ring8):
    op = gtrr_operator(ring8)
    td = transform_data(op)
    eng = AbcEngine(op, quad8, stream(5))
    xform = TransformedEngine(op, quad8, stream(5))
    x0 = initial_iterates(quad8, "same", 1.0, init_seed=5)
    eng.reset(x0)
    xform.reset(x0)
    for t in range(3):
        # drive both engines one epoch and compare s reconstructed from z
        eng.epoch(t, ALPHA)
        xform.epoch(t, ALPHA)
        xz, sz = eng.abc_state(ALPHA)
        xs, ss = xform.abc_state(ALPHA)
        assert np.linalg.norm(xz - xs) / max(1, np.linalg.norm(xz)) < 1e-9
        proj = td.uhat.T @ (sz - ss)
        assert np.linalg.norm(proj) / max(1, np.linalg.norm(td.uhat.T @ sz)) < 1e-9


def test_fixed_point_at_consensus_with_zero_gradients():
    # consistent quadratic: at the shared minimizer every update is a no-op
    obj = make_quadratic(6, 3, 4, seed=9, consistent=True)
    mix = metropolis_weights(build_graph("ring", n=6))
    op = gtrr_operator(mix)
    eng = TransformedEngine(op, obj, stream(1))
    X_star = np.tile(obj.x_star, (6, 1))
    eng.reset(X_star)
    eng.epoch(0, 0.1)
    assert np.linalg.norm(eng.X - X_star) < 1e-12


def test_epoch_chaining_exact_for_persistent_dual(lazy_ring8):
    # the carried (x, z) state is continuous across epochs, so for the
    # persistent preset the end-of-epoch e equals the re-anchored start-of-
    # epoch e whenever the epoch anchor moves within the consensus span;
    # the homogeneous-Hessian quadratic family has that property exactly
    obj = make_quadratic(8, 5, 4, seed=11, condition=2.0)
    op = edrr_operator(lazy_ring8)
    td = transform_data(op)
    eng = TransformedEngine(op, obj, stream(11))
    eng.reset(initial_iterates(obj, "same", 1.0, init_seed=11))
    for t in range(5):
        eng.epoch(t, ALPHA)
        e_end = td.e_vector(eng.X, eng.S)
        s_next, _, _ = eng._anchored_s(ALPHA)
        e_next = td.e_vector(eng.X, s_next)
        assert np.linalg.norm(e_next - e_end) < 1e-9


def test_epoch_chaining_jump_is_anchor_swap_in_general(lazy_ring8, rng):
    # heterogeneous Hessians: the jump equals exactly the projected anchor
    # difference, and nothing else
    A = rng.normal(size=(8, 5, 4, 4)) / 2.0 + np.eye(4) * 0.8
    b = np.einsum("imkp,imp->imk", A, rng.normal(size=(8, 5, 4)))
    obj = QuadraticObjective(A, b)
    op = edrr_operator(lazy_ring8)
    td = transform_data(op)
    eng = TransformedEngine(op, obj, stream(7))
    eng.reset(initial_iterates(obj, "same", 1.0, init_seed=7))
    for t in range(4):
        eng.epoch(t, 0.01)
        e_end = td.e_vector(eng.X, eng.S)
        s_next, anchor_next, _ = eng._anchored_s(0.01)
        e_next = td.e_vector(eng.X, s_next)
        swap = td.e_vector(np.zeros_like(eng.X), anchor_next - eng._anchor)
        assert np.linalg.norm((e_next - e_end) - swap) < 1e-12


def test_epoch_chaining_jump_vanishes_linearly_for_tracker_reset(quad8, ring8):
    # the tracker reinit makes e jump by O(alpha); halving alpha should
    # roughly halve the jump
    op = gtrr_operator(ring8)
    td = transform_data(op)

    def jump_at(alpha):
        eng = TransformedEngine(op, quad8, stream(9))
        eng.reset(initial_iterates(quad8, "same", 1.0, init_seed=9))
        eng.epoch(0, alpha)
        e_end = td.e_vector(eng.X, eng.S)
        s_next, _, _ = eng._anchored_s(alpha)
        return float(np.linalg.norm(td.e_vector(eng.X, s_next) - e_end))

    j1, j2 = jump_at(1e-3), jump_at(1e-4)
    assert 5.0 < j1 / j2 < 20.0
