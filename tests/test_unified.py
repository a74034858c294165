import dataclasses

import numpy as np
import pytest
from dense_blocks import (block_basis, block_diag, block_map, canonical_gamma,
                          consensus_bound)

from netshuffle import algorithms
from netshuffle.algorithms import EDRRPrimalDual, initial_iterates
from netshuffle.objective import QuadraticObjective, make_quadratic
from netshuffle.shuffling import PermutationStream
from netshuffle.topology import build_graph, lazify, metropolis_weights, psd_sqrt
from netshuffle.unified import (AbcEngine, OperatorError, TransformedEngine,
                                _block_bases, _poly_matrix, build_operator,
                                factor_b2,
                                edrr_operator, gtrr_operator, transform_data)

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


def test_gtrr_preset_root_vanishes_on_consensus(lazy_ring8):
    # the consensus eigenvalue of (I - W)^2 rounds to a tiny positive value
    # here, and its square root alone would put 1e-8 of B on the ones vector
    op = gtrr_operator(lazy_ring8)
    assert np.linalg.norm(op.B @ np.ones(lazy_ring8.n)) < 1e-12


def test_edrr_preset_square_root(lazy_ring8):
    op = edrr_operator(lazy_ring8)
    n = lazy_ring8.n
    assert np.linalg.norm(op.B @ op.B - (np.eye(n) - lazy_ring8.w)) < 1e-12
    assert np.allclose(op.C, np.eye(n))


def test_lazy_b_is_the_root_of_b2(ring8, lazy_ring8):
    for op in (gtrr_operator(ring8), edrr_operator(lazy_ring8)):
        assert "B" not in vars(op) and "B2" not in vars(op)
        assert np.array_equal(op.B2, _poly_matrix(op.poly_b2, op.mix.w))
        assert np.array_equal(op.B, psd_sqrt(op.B2))
        assert op.B is op.B and op.B2 is op.B2


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


def dense_operator_error(coeffs, mix):
    """The message the dense check of A or C raises for these coefficients,
    or None."""
    M = _poly_matrix(coeffs, mix.w)
    if np.abs(M.sum(axis=1) - 1.0).max() > 1e-12:
        return "A is not stochastic for these coefficients"
    if M.min() < -1e-12:
        return "A has negative entries; not doubly stochastic"
    return None


@pytest.mark.parametrize("graph", [build_graph("ring", n=8), build_graph("star", n=6),
                                   build_graph("grid:2x3")],
                         ids=["ring", "star", "grid"])
@pytest.mark.parametrize("coeffs", [(0.0, 1.0), (1.0,), (0.5, 0.5), (-0.5, 1.5), (-1.0, 2.0),
                                    (0.0, 2.0), (2.0, -1.0), (1.5, -0.5), (0.9,),
                                    (0.5, 0.5, 0.0), (0.5, -0.5, 1.0)])
def test_degree_one_checks_on_entries_match_dense(graph, coeffs):
    mix = metropolis_weights(graph)
    expected = dense_operator_error(coeffs, mix)
    fresh = metropolis_weights(graph)
    op = None
    if expected is None:
        op = build_operator(coeffs, (1.0, -1.0), (1.0,), fresh)
    else:
        with pytest.raises(OperatorError) as exc:
            build_operator(coeffs, (1.0, -1.0), (1.0,), fresh)
        assert str(exc.value) == expected
    # on a circulant W, only a polynomial of degree 2 or more is realized
    if fresh.spectral.modes is not None:
        assert ("w" in vars(fresh)) == (len(coeffs) > 2)
    if op is not None:
        assert op.A.tobytes() == _poly_matrix(coeffs, mix.w).tobytes()


def test_presets_leave_dense_w_and_operators_unbuilt():
    mix = lazify(metropolis_weights(build_graph("ring", n=512)), 0.5)
    ops = gtrr_operator(mix), edrr_operator(mix)
    for op in ops:
        transform_data(op)
        assert not {"A", "C", "B", "B2"} & set(vars(op))
    assert "w" not in vars(mix)
    assert np.array_equal(ops[0].A, mix.w) and np.array_equal(ops[1].C, np.eye(512))


def lazy_ring_spectrum(n: int, tau: float = 0.5) -> np.ndarray:
    """Eigenvalues of lazify(Metropolis ring, tau) in closed form, descending:
    1 - (1 - tau) (2/3) (1 - cos(2 pi k / n)) for k = 0..n-1."""
    k = np.arange(n)
    return np.sort(1.0 - (1.0 - tau) * (2.0 / 3.0) * (1.0 - np.cos(2.0 * np.pi * k / n)))[::-1]


def test_b_polynomial_check_accepts_a_lazy_ring_at_4096():
    lam = lazy_ring_spectrum(4096)
    # an absolute bound of 1e-12 on b^2 rejected GT-RR here
    assert (1.0 - lam[1]) ** 2 < 1e-12
    assert factor_b2((1.0, -2.0, 1.0), lam) == (2, (1.0,))
    assert factor_b2((1.0, -1.0), lam) == (1, (1.0,))
    # b^2 = (1 - lam)(lam - c)^2 vanishes at the eigenvalue c inside (-1, 1)
    c = lam[1000]
    with pytest.raises(OperatorError, match="null space"):
        factor_b2((c * c, -2.0 * c - c * c, 1.0 + 2.0 * c, -1.0), lam)
    # the same shape with c off the spectrum is admissible
    c = 0.5 * (lam[1000] + lam[1002])
    assert factor_b2((c * c, -2.0 * c - c * c, 1.0 + 2.0 * c, -1.0), lam)[0] == 1


def test_gtrr_b_is_exactly_one_minus_lambda(lazy_ring8):
    lam_vals = lazy_ring8.spectral.eigenvalues[1:]
    td = transform_data(gtrr_operator(lazy_ring8))
    assert np.array_equal(td.b_vals, 1.0 - lam_vals)
    td = transform_data(edrr_operator(lazy_ring8))
    assert np.array_equal(td.b_vals, np.sqrt(1.0 - lam_vals))


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


@pytest.mark.parametrize("engine", [AbcEngine, TransformedEngine])
def test_engines_reject_bad_x0_and_iid_sampling(engine, quad8, ring8):
    op = gtrr_operator(ring8)
    eng = engine(op, quad8, stream())
    with pytest.raises(ValueError, match="X0 must be"):
        eng.reset(np.zeros((quad8.n, quad8.p + 1)))
    with pytest.raises(ValueError, match="rr or once"):
        engine(op, quad8, PermutationStream(0, "iid"))


# ---------------------------------------------------------------------------
# spectral transform
# ---------------------------------------------------------------------------


def graph_suite():
    mats = []
    for n in (4, 8, 16):
        mats.append(("ring", n, metropolis_weights(build_graph("ring", n=n))))
        grid = {4: "grid:2x2", 8: "grid:2x4", 16: "grid:4x4"}[n]
        mats.append(("grid", n, metropolis_weights(build_graph(grid))))
        mats.append(("complete", n, metropolis_weights(build_graph("complete", n=n))))
    return mats


@pytest.mark.parametrize("kind,n,mix", graph_suite(),
                         ids=lambda v: v if isinstance(v, str) else str(v))
def test_gtrr_gamma_equals_lambda(kind, n, mix):
    td = transform_data(gtrr_operator(mix))
    assert abs(td.gamma - mix.spectral.lam) < 1e-9
    assert td.norm_V2 <= 3.0 + 1e-12
    assert td.norm_V2 <= 9.0 + 1e-12  # ||V^-1||^2, balanced to ||V||^2
    assert td.gamma < 1.0


@pytest.mark.parametrize("kind,n,mix", graph_suite(),
                         ids=lambda v: v if isinstance(v, str) else str(v))
def test_edrr_gamma_is_sqrt_lambda_on_pd(kind, n, mix):
    lazy = lazify(mix, 0.5)
    td = transform_data(edrr_operator(lazy))
    assert abs(td.gamma - np.sqrt(lazy.spectral.lam)) < 1e-9


def gamma_blocks(op, td):
    """The operator's blocks G, rebuilt from its polynomials and W's
    spectrum, and Gamma = V^{-1} G V in its checked canonical form; also
    checks that the transform took its V from these G."""
    G = block_map(op)
    V, radius, defective, cond = _block_bases(G)
    assert np.array_equal(V, td.V_blocks)
    return G, canonical_gamma(G, V, radius, defective, cond)


@pytest.mark.parametrize("kind,n,mix", graph_suite(),
                         ids=lambda v: v if isinstance(v, str) else str(v))
def test_similarity_reconstructs_block_map(kind, n, mix):
    for op in (gtrr_operator(mix), edrr_operator(lazify(mix, 0.5))):
        td = transform_data(op)
        if n == 1:
            continue
        V, Vinv = block_diag(td.V_blocks), block_diag(td.Vinv_blocks)
        G, Gamma = gamma_blocks(op, td)
        recon = V @ block_diag(Gamma) @ Vinv
        assert np.linalg.norm(recon - block_diag(G)) < 1e-9
        assert np.linalg.norm(V @ Vinv - np.eye(2 * (n - 1))) < 1e-10


def test_tracking_norm_bounds_across_twenty_graphs():
    # ||V||^2 <= 3 and ||V^{-1}||^2 <= 9 for the tracking preset over a
    # spread of ring/grid mixing matrices, lazified and not
    mats = []
    for n in (4, 5, 6, 8, 10, 12, 16, 20):
        mats.append(metropolis_weights(build_graph("ring", n=n)))
    for rows, cols in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (2, 8),
                       (4, 5)):
        mats.append(metropolis_weights(build_graph(f"grid:{rows}x{cols}")))
    mats.extend(lazify(m, tau) for m, tau in zip(mats[:4], (0.2, 0.4, 0.6, 0.8)))
    assert len(mats) >= 20
    for mix in mats:
        td = transform_data(gtrr_operator(mix))
        assert td.norm_V2 <= 3.0 + 1e-12
        assert td.norm_V2 <= 9.0 + 1e-12  # ||V^-1||^2, balanced to ||V||^2
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
    assert td.norm_V2 * td.norm_V2 <= bound + 1e-9


def block_suite():
    """Operators over ring, star, complete and grid graphs, plain and
    lazified, under both presets; ED-RR only where W is PSD."""
    graphs = (("ring", build_graph("ring", n=9)), ("star", build_graph("star", n=7)),
              ("complete", build_graph("complete", n=6)),
              ("grid", build_graph("grid:3x4")))
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
    k = op.mix.n - 1
    # no field stores more than one 2x2 block per eigenvalue
    for field in dataclasses.fields(td):
        value = getattr(td, field.name)
        if isinstance(value, np.ndarray):
            assert value.size <= 4 * k, field.name
    V, Vinv = block_diag(td.V_blocks), block_diag(td.Vinv_blocks)
    assert td.norm_V2 == pytest.approx(np.linalg.norm(V, 2) ** 2, rel=1e-12)
    assert td.norm_V2 == pytest.approx(np.linalg.norm(Vinv, 2) ** 2, rel=1e-12)
    for _ in range(5):
        X = rng.normal(size=(op.mix.n, 3))
        S = rng.normal(size=(op.mix.n, 3))
        uhat = td.spectral.uhat
        dense = Vinv @ np.vstack([uhat.T @ X, (uhat.T @ S) / td.b_vals[:, None]])
        e = td.e_vector(X, S)
        assert e.shape == (2 * k, 3)
        assert np.max(np.abs(e - dense)) <= 1e-13 * max(1.0, np.max(np.abs(dense)))


def _inverse_blocks(V):
    det = V[:, 0, 0] * V[:, 1, 1] - V[:, 0, 1] * V[:, 1, 0]
    adj = np.stack([np.stack([V[:, 1, 1], -V[:, 0, 1]], axis=1),
                    np.stack([-V[:, 1, 0], V[:, 0, 0]], axis=1)], axis=1)
    return adj / det[:, None, None]


def test_vectorized_block_bases_match_per_block_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    unit = st.floats(-1.0, 1.0)

    @st.composite
    def block_values(draw):
        # (a, b^2, c) at eigenvalues of W; b^2 = (1 - lam)^2 with a = c = lam
        # makes the discriminant vanish, and a nudge of up to 1e-9 puts it on
        # either side of the 1e-10 defective threshold
        if draw(st.booleans()):
            return draw(unit), draw(st.floats(0.0, 4.0)), draw(unit)
        lam = draw(unit)
        nudge = draw(st.sampled_from([0.0, 1e-12, -1e-12])) \
            or draw(st.floats(-1e-9, 1e-9))
        return lam, max((1.0 - lam) ** 2 + nudge, 0.0), lam

    def close(x, y):
        scale = np.abs(y).max(axis=(1, 2))
        return np.all(np.abs(x - y).max(axis=(1, 2)) <= 1e-15 * scale)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(block_values(), min_size=1, max_size=12))
    def check(values):
        a, b2, c = map(np.array, zip(*values))
        G = np.empty((len(values), 2, 2))
        G[:, 0, 0] = a * c - b2
        G[:, 0, 1] = -np.sqrt(b2)
        G[:, 1, 0] = np.sqrt(b2)
        G[:, 1, 1] = 1.0
        V, radius, defective, cond = _block_bases(G)
        ref = [block_basis(g) for g in G]
        V_ref = np.array([r[0] for r in ref])
        assert close(V, V_ref)
        canonical_gamma(G, V, radius, defective, cond)
        assert close(_inverse_blocks(V), _inverse_blocks(V_ref))
        assert radius.max() == max(r[1] for r in ref)
        assert defective.any() == any(r[2] for r in ref)

    check()


def test_single_agent_transform_is_empty():
    mix = metropolis_weights(build_graph("complete", n=1))
    for op in (gtrr_operator(mix), edrr_operator(mix)):
        td = transform_data(op)
        assert td.norm_V2 == 1.0
        assert td.e_vector(np.ones((1, 4)), np.ones((1, 4))).shape == (0, 4)
        assert block_diag(td.V_blocks).shape == (0, 0)


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
        assert consensus <= consensus_bound(td, e) * (1 + 1e-12)


def test_transformed_one_step_recursion_matches_blocks(quad8, ring8):
    # advancing (x, s) and mapping to e equals Gamma e - alpha Vinv [...]
    op = gtrr_operator(ring8)
    td = transform_data(op)
    eng = TransformedEngine(op, quad8, stream(3))
    eng.reset(initial_iterates(quad8, "same", 1.0, init_seed=3))
    t = 0
    alpha = ALPHA
    eng.S, eng._anchor, AGc = eng._anchored_s(alpha)
    samples = quad8.step_samples(eng.stream.epoch_orders(eng.n, t, eng.m))
    Gc = np.linalg.solve(op.A, AGc)
    Gamma, Vinv = block_diag(gamma_blocks(op, td)[1]), block_diag(td.Vinv_blocks)
    for ell in range(eng.m):
        e_before = td.e_vector(eng.X, eng.S)
        g = quad8.perm_grads(eng.X, samples[ell])
        drive = np.vstack([
            (td.a_vals[:, None]) * (td.spectral.uhat.T @ (g - Gc)),
            np.zeros((eng.n - 1, eng.p)),
        ])
        predicted = Gamma @ e_before - alpha * (Vinv @ drive)
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
        uhat = td.spectral.uhat
        proj = uhat.T @ (sz - ss)
        assert np.linalg.norm(proj) / max(1, np.linalg.norm(uhat.T @ sz)) < 1e-9


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


@pytest.mark.parametrize("method", ["gtrr", "edrr"])
def test_e_norm_sq_matches_long_double_reference_on_lazy_ring512(method, monkeypatch):
    """Every written e_norm_sq of a lazy ring512 run against the same
    quantity in long double: a real Fourier basis built in long double,
    b = 1 - lambda (GT-RR) or its root (ED-RR), and the run's V blocks."""
    from netshuffle import metrics
    from netshuffle.harness import ExperimentConfig, build_mix, build_objective
    from netshuffle.stepsize import ConstantSchedule

    cfg = ExperimentConfig(objective="quadratic", n=512, m=8, dim=16, hetero=True,
                           graph="ring", tau=0.5, methods=(method,), epochs=6)
    mix, obj = build_mix(cfg), build_objective(cfg)
    op = gtrr_operator(mix) if method == "gtrr" else edrr_operator(mix)
    td = transform_data(op)
    states = []
    record = metrics.record

    def keep_state(traj, X, t, alpha, objective, transform=None, S=None, wall_ns=None):
        states.append(np.concatenate((X, S), axis=1))
        return record(traj, X, t, alpha, objective, transform, S, wall_ns)

    monkeypatch.setattr(algorithms._metrics, "record", keep_state)
    traj = algorithms.run(method, obj, mix, ConstantSchedule(0.01), cfg.epochs, seed=0,
                          transform=td)
    got = traj.column("e_norm_sq")
    assert len(got) == len(states) == cfg.epochs + 1

    n, p = cfg.n, cfg.dim
    ld = np.longdouble
    # rows in the spectrum's order: the cosine and sine of k = 1, 2, ...,
    # n/2 - 1, then the alternating vector; a pair shares its eigenvalue's
    # bits and so its V block, which makes e_norm_sq blind to the basis
    # chosen inside the pair
    lam = td.spectral.eigenvalues[1:]
    assert np.all(lam[:-1:2] == lam[1::2]) and np.all(np.diff(lam) <= 0)
    freq = np.arange(1, n // 2 + 1).repeat(2)[:n - 1]
    sine = np.arange(n - 1) % 2 == 1
    angle = 2 * np.pi * (np.outer(np.arange(n), freq) % n).astype(ld) / n
    scale = np.where(freq == n // 2, 1 / np.sqrt(ld(n)), np.sqrt(ld(2) / n))
    basis = np.where(sine, np.sin(angle), np.cos(angle)) * scale
    lam_ld = lam.astype(ld)
    assert np.max(np.abs(lam_ld - (1 - (1 - cfg.tau) * (2 / ld(3)) * (1 - np.cos(
        2 * np.pi * freq.astype(ld) / n))))) < 1e-15
    b = 1 - lam_ld if method == "gtrr" else np.sqrt(1 - lam_ld)
    Vi = td.Vinv_blocks.astype(ld)[:, :, :, None]
    proj = basis.T @ np.concatenate(states, axis=1).astype(ld)
    for row, value in enumerate(got):
        block = proj[:, 2 * p * row:2 * p * (row + 1)]
        top, bottom = block[:, :p], block[:, p:] / b[:, None]
        e = np.concatenate([Vi[:, 0, 0] * top + Vi[:, 0, 1] * bottom,
                            Vi[:, 1, 0] * top + Vi[:, 1, 1] * bottom])
        ref = np.sum(e * e)
        assert abs(value - ref) <= 1e-11 * ref, (row, value, ref)


def test_run_refuses_a_transform_built_for_another_method(lazy_ring8):
    # given GT-RR's transform, an edrr run wrote e_norm_sq 0.129 at t = 5
    # where its own transform gives 0.0304
    from netshuffle.stepsize import ConstantSchedule

    obj = make_quadratic(8, 5, 4, seed=11, condition=2.0)
    own = transform_data(edrr_operator(lazy_ring8))
    traj = algorithms.run("edrr", obj, lazy_ring8, ConstantSchedule(ALPHA), 5, seed=0,
                          transform=own)
    assert traj[-1].e_norm_sq == pytest.approx(0.0304, rel=1e-2)
    custom = transform_data(build_operator((0.0, 1.0), (1.0, -1.0), (1.0,), lazy_ring8))
    for method, td, other in (("edrr", transform_data(gtrr_operator(lazy_ring8)), "'gtrr'"),
                              ("gtrr", own, "'edrr'"), ("drr", own, "'edrr'"),
                              ("edrr", custom, "None")):
        with pytest.raises(ValueError, match=f"method '{method}' .* method {other}"):
            algorithms.run(method, obj, lazy_ring8, ConstantSchedule(ALPHA), 5, seed=0,
                           transform=td)
