import numpy as np
import pytest

from dense_quadratic import general, matrix_form
from netshuffle.objective import (ESTIMATED, EXACT, UNAVAILABLE,
                                  QuadraticObjective, SeparableQuadratic,
                                  make_logistic, make_nonconvex_logistic,
                                  make_quadratic)
from netshuffle.shuffling import PURPOSE_MC, keyed_rng
from signed_logistic import SignedLogistic, loss_slope, samples, signed_rows


def step_grads(obj, X, idx):
    """perm_grads at the one-step orders idx[:, None]."""
    return obj.perm_grads(X, obj.step_samples(idx[:, None])[0])


FAMILIES = {
    "quadratic": lambda: make_quadratic(3, 4, 5, seed=5, condition=4.0),
    "logistic": lambda: make_logistic(3, 4, 5, seed=5, rho=0.2),
    "ncvx": lambda: make_nonconvex_logistic(3, 4, 5, seed=5, eta=0.2),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_full_grad_is_mean_of_component_grads(family, rng):
    obj = FAMILIES[family]()
    x = rng.normal(size=obj.p)
    comp = np.mean([[obj.component_grad(i, l, x) for l in range(obj.m)]
                    for i in range(obj.n)], axis=(0, 1))
    assert np.max(np.abs(obj.grad(x) - comp)) < 1e-12
    vals = np.mean([[obj.component_value(i, l, x) for l in range(obj.m)]
                    for i in range(obj.n)])
    assert obj.value(x) == pytest.approx(vals, rel=1e-12)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stacked_oracles_match_pointwise(family, rng):
    obj = FAMILIES[family]()
    X = rng.normal(size=(obj.n, obj.p))
    idx = rng.integers(obj.m, size=obj.n)
    stacked = step_grads(obj, X, idx)
    for i in range(obj.n):
        assert np.allclose(stacked[i], obj.component_grad(i, int(idx[i]), X[i]),
                           atol=1e-12)
    agent = obj.stacked_agent_grads(X)
    for i in range(obj.n):
        assert np.allclose(agent[i], obj.agent_grad(i, X[i]), atol=1e-12)
    assert np.allclose(obj.values_at(X), [obj.value(x) for x in X], rtol=1e-12)


def test_quadratic_minimizer_is_critical():
    obj = make_quadratic(4, 3, 6, seed=9, condition=10.0)
    assert np.linalg.norm(obj.grad(obj.x_star)) < 1e-10
    assert obj.constants.tag("f_star") == EXACT


def test_quadratic_consistent_system_min_zero():
    obj = make_quadratic(4, 3, 5, seed=9, consistent=True)
    assert obj.constants.f_star == pytest.approx(0.0, abs=1e-18)
    assert obj.constants.f_star_components == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("condition", [1.0, 10.0])
def test_quadratic_batched_build_matches_per_component_loop(condition):
    # one stacked draw and QR must give the bits of one QR per component
    n, m, p = 3, 4, 5
    A = matrix_form(n, m, p, 7, condition=condition)[0]
    rng = keyed_rng(7, PURPOSE_MC, agent=2, epoch=0)
    s = np.logspace(0.0, 0.5 * np.log10(condition), p)
    for i in range(n):
        for l in range(m):
            q, _ = np.linalg.qr(rng.normal(size=(p, p)))
            assert np.array_equal(A[i, l], q if condition == 1.0 else q * s)


# m * p * p = 2048 floats per agent puts 64 agents in a block of dropped
# normals, so n = 150 ends on a partial block; an agent of m * p * p =
# 2 * 300 * 300 floats exceeds one
@pytest.mark.parametrize("n,m,p,kw", [
    (150, 8, 16, {}),
    (150, 8, 16, {"condition": 30.0, "hetero": 2.0, "spread": 0.5}),
    (70, 8, 16, {"consistent": True, "condition": 4.0}),
    (3, 2, 300, {"condition": 2.0}),
], ids=["partial-block", "condition", "consistent", "agent-above-block"])
def test_make_quadratic_blocks_equal_one_shot_construction(n, m, p, kw):
    A, b, targets, _ = matrix_form(n, m, p, 4, **kw)
    # the closed form draws and drops the rotation normals a block at a time,
    # so its targets are the one-shot matrix form's to the bit
    assert make_quadratic(n, m, p, seed=4, **kw).targets.tobytes() == targets.tobytes()
    # L is one eigvalsh of the stacked component Grams
    L = float(np.linalg.eigvalsh(np.swapaxes(A, 2, 3) @ A)[..., -1].max())
    assert QuadraticObjective(A, b).constants.L == L


@pytest.mark.parametrize("n,m,p,condition", [(512, 8, 16, 1.0), (16, 6, 5, 100.0)])
def test_quadratic_blas_grams_match_einsum_forms(n, m, p, condition):
    obj = general(n, m, p, 0, condition=condition)
    H_agent = np.einsum("imkp,imkq->ipq", obj.A, obj.A) / m
    hess = np.einsum("imkp,imkq->impq", obj.A, obj.A)
    L = float(np.linalg.eigvalsh(hess)[..., -1].max())
    assert np.max(np.abs(obj.H_agent - H_agent)) <= 1e-14 * np.max(np.abs(H_agent))
    assert obj.constants.L == pytest.approx(L, rel=1e-14, abs=0)


def test_component_minima_match_least_squares(rng):
    # a rank-deficient component exercises lstsq's default rank cutoff
    A = rng.normal(size=(3, 4, 6, 3))
    A[0, 0, :, 2] = A[0, 0, :, 1]
    b = rng.normal(size=(3, 4, 6))
    expected = []
    for Ail, bil in zip(A.reshape(-1, 6, 3), b.reshape(-1, 6)):
        sol, *_ = np.linalg.lstsq(Ail, bil, rcond=None)
        expected.append(0.5 * float(np.sum((Ail @ sol - bil) ** 2)))
    got = QuadraticObjective(A, b).constants.f_star_components
    assert got == pytest.approx(np.mean(expected), rel=1e-12)


def test_quadratic_identity_single_component():
    A = np.eye(3)[None, None]
    b = np.zeros((1, 1, 3))
    obj = QuadraticObjective(A, b)
    assert obj.constants.L == pytest.approx(1.0)
    assert obj.constants.mu == pytest.approx(1.0)
    assert np.allclose(obj.x_star, 0.0)
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(obj.component_grad(0, 0, x), x)
    assert np.allclose(obj.grad(x), obj.component_grad(0, 0, x))  # n=m=1


def test_quadratic_pl_inequality_thousand_points(rng):
    obj = make_quadratic(3, 2, 4, seed=7, condition=8.0)
    mu, fstar = obj.constants.mu, obj.constants.f_star
    for _ in range(1000):
        x = rng.normal(size=obj.p) * 5.0
        g = obj.grad(x)
        lhs = 2.0 * mu * (obj.value(x) - fstar)
        assert lhs <= g @ g + 1e-9 * max(1.0, g @ g)


def test_quadratic_component_lipschitz_secants(rng):
    obj = make_quadratic(3, 3, 4, seed=3, condition=5.0)
    L = obj.constants.L
    for _ in range(200):
        i = int(rng.integers(obj.n))
        l = int(rng.integers(obj.m))
        x, y = rng.normal(size=(2, obj.p)) * 3.0
        dg = np.linalg.norm(obj.component_grad(i, l, x) - obj.component_grad(i, l, y))
        assert dg <= L * np.linalg.norm(x - y) * (1 + 1e-12)


def test_quadratic_bounded_variance_inequality(rng):
    # (1/mn) sum ||grad f_il(x) - grad f_i(x)||^2
    #   <= 2L (f(x) - f*) + 2L (f* - mean_il f*_il)
    obj = make_quadratic(4, 3, 5, seed=13, condition=3.0)
    c = obj.constants
    for _ in range(50):
        x = rng.normal(size=obj.p) * 4.0
        lhs = np.mean([
            [np.sum((obj.component_grad(i, l, x) - obj.agent_grad(i, x)) ** 2)
             for l in range(obj.m)] for i in range(obj.n)])
        rhs = 2 * c.L * (obj.value(x) - c.f_star) \
            + 2 * c.L * (c.f_star - c.f_star_components)
        assert lhs <= rhs * (1 + 1e-10)


def test_quadratic_jensen_ordering():
    obj = make_quadratic(5, 4, 3, seed=21, condition=2.0)
    c = obj.constants
    assert c.f_star >= c.f_star_agents - 1e-12
    assert c.f_star_agents >= c.f_star_components - 1e-12


def test_quadratic_rejects_singular_average_hessian():
    A = np.zeros((1, 2, 2, 2))
    A[0, :, 0, 0] = 1.0  # rank-deficient average Hessian
    b = np.zeros((1, 2, 2))
    with pytest.raises(ValueError, match="singular"):
        QuadraticObjective(A, b)


def test_logistic_defaults_and_constants():
    obj = make_logistic(4, 5, 6, seed=1)
    assert obj.rho == 0.2
    assert obj.constants.mu == pytest.approx(0.2)
    norms = np.sum(signed_rows(obj) ** 2, axis=2)
    assert obj.constants.L == pytest.approx(norms.max() / 4.0 + 0.2)
    assert obj.constants.tag("f_star") == ESTIMATED
    assert obj.constants.tag("f_star_components") == UNAVAILABLE


def test_logistic_ridge_gradient_term(rng):
    obj = make_logistic(2, 3, 4, seed=2, rho=0.2)
    x = rng.normal(size=4)
    row = signed_rows(obj)[0, 0]
    z = row @ x
    data_part = -row / (1.0 + np.exp(z))
    assert np.allclose(obj.component_grad(0, 0, x) - data_part, 0.2 * x, atol=1e-12)


def test_logistic_estimated_minimum_is_near_stationary():
    obj = make_logistic(3, 6, 4, seed=8, rho=0.2)
    from netshuffle.objective import estimate_minimum
    f_star, x_star, converged = estimate_minimum(obj.value, obj.grad, obj.p,
                                                 obj.constants.L)
    assert converged and np.linalg.norm(obj.grad(x_star)) <= 1e-10
    assert obj.constants.f_star == pytest.approx(f_star, rel=1e-12)


def test_logistic_hessian_norm_below_stored_L(rng):
    obj = make_logistic(3, 5, 4, seed=4, rho=0.2)
    signed = signed_rows(obj).reshape(-1, obj.p)
    for _ in range(20):
        x = rng.normal(size=obj.p) * 2.0
        z = signed @ x
        s = 1.0 / (1.0 + np.exp(-z))
        H = (signed.T * (s * (1 - s))) @ signed / len(signed) + 0.2 * np.eye(obj.p)
        assert np.linalg.norm(H, 2) <= obj.constants.L * (1 + 1e-12)


def test_heterogeneous_partition_pure_labels(rng):
    # balanced pool: the sorted-block partition puts one label per agent
    from netshuffle.objective import logistic_from_samples
    feats = rng.normal(size=(16, 3))
    labels = np.array([-1.0] * 8 + [1.0] * 8)
    obj = logistic_from_samples(feats, labels, n=2, m=8, heterogeneous=True)
    assert set(obj.labels[0].tolist()) == {-1.0}
    assert set(obj.labels[1].tolist()) == {1.0}


def test_heterogeneous_partition_minimizes_label_mixing():
    # generic pool: at most one agent straddles the label boundary
    obj = make_logistic(4, 8, 3, seed=6, heterogeneous=True)
    mixed = sum(len(set(obj.labels[i].tolist())) > 1 for i in range(4))
    assert mixed <= 1
    joined = np.concatenate([obj.labels[i] for i in range(4)])
    assert np.all(np.diff(joined) >= 0)  # blocks follow the sorted order


def test_nonconvex_regularizer_properties(rng):
    obj = make_nonconvex_logistic(2, 3, 6, seed=3, eta=0.2)
    assert obj.constants.mu is None
    assert obj.constants.tag("mu") == UNAVAILABLE
    # regularizer gradient vanishes at the origin
    zero_reg = obj._reg_grad(np.zeros(obj.p))
    assert np.allclose(zero_reg, 0.0)
    # bounded by eta p / 2 everywhere
    for _ in range(50):
        x = rng.normal(size=obj.p) * 50.0
        assert obj._reg_value(x) < 0.2 * obj.p / 2.0


def test_index_bounds_raise():
    obj = make_quadratic(2, 2, 3, seed=1)
    with pytest.raises(IndexError):
        obj.component_grad(2, 0, np.zeros(3))
    with pytest.raises(IndexError):
        obj.component_value(0, 2, np.zeros(3))


def _count_estimates(monkeypatch):
    from netshuffle import objective
    calls = []

    def counted(value, grad, p, L=None):
        calls.append(L)
        return 0.0, np.zeros(p), True

    monkeypatch.setattr(objective, "estimate_minimum", counted)
    return calls


def test_logistic_minimum_is_estimated_on_first_read_of_constants(monkeypatch, rng):
    calls = _count_estimates(monkeypatch)
    obj = make_nonconvex_logistic(3, 4, 5, 5)
    x = rng.normal(size=obj.p)
    obj.component_grad(1, 2, x)
    step_grads(obj, np.tile(x, (obj.n, 1)), np.zeros(obj.n, dtype=int))
    assert len(calls) == 0
    c = obj.constants
    assert c.L > 0 and c.mu is None and c.tag("mu") == UNAVAILABLE
    assert len(calls) == 0
    # the tag of an estimate is known once it has run
    assert c.tag("f_star") == ESTIMATED
    assert len(calls) == 1
    assert c.f_star == 0.0
    assert len(calls) == 1
    assert obj.constants.f_star == 0.0 and obj.constants is c
    assert len(calls) == 1


def test_an_estimate_stopped_at_its_cap_is_tagged_unconverged(monkeypatch):
    from netshuffle import objective
    obj = make_logistic(3, 6, 4, seed=8, rho=0.2)
    f, _, converged = objective.estimate_minimum(obj.value, obj.grad, obj.p,
                                                 obj.constants.L, max_iter=3)
    assert not converged and f > obj.constants.f_star
    assert obj.constants.tag("f_star") == ESTIMATED
    # this draw runs to the 50,000-step cap in about 2 s; a 50-step cap
    # stops it short of the tolerance just the same
    estimate = objective.estimate_minimum
    monkeypatch.setattr(objective, "estimate_minimum",
                        lambda *args: estimate(*args, max_iter=50))
    capped = make_nonconvex_logistic(2, 3, 6, seed=3, eta=0.2).constants
    assert capped.tag("f_star") == "estimated-unconverged"
    assert np.isfinite(capped.f_star)


def test_quadratic_minima_wait_for_first_read(monkeypatch):
    calls = {"svd": 0, "solve": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    A, b, _, L = matrix_form(6, 3, 4, 2, condition=3.0)
    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    obj = QuadraticObjective(A, b, L=L)
    c = obj.constants
    assert c.L > 0 and c.mu > 0 and c.f_star is not None
    assert calls == {"svd": 0, "solve": 1}  # x_star only
    assert c.f_star_components <= c.f_star_agents <= c.f_star
    assert calls == {"svd": 1, "solve": 1 + obj.n}
    assert c.f_star_components == obj.constants.f_star_components
    assert calls == {"svd": 1, "solve": 1 + obj.n}


def test_gradcheck_suite_estimates_no_minimum(monkeypatch):
    from netshuffle import harness
    calls = _count_estimates(monkeypatch)
    assert all(check.passed for check in harness.verify_gradcheck(points=5))
    assert len(calls) == 0


def test_quadratic_minima_from_residuals_on_consistent_systems():
    # each agent's minimum comes from the residuals at its own minimizer, so
    # a consistent system reads round-off above zero, never below it
    for seed in range(30):
        c = make_quadratic(4, 3, 5, seed, consistent=True).constants
        assert c.f_star_agents >= 0.0, seed
        assert max(c.f_star, c.f_star_agents, c.f_star_components) < 1e-28, seed


def _logistic_draws():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def draws(draw):
        n, m, p = draw(st.integers(1, 9)), draw(st.integers(1, 5)), draw(st.integers(1, 12))
        seed = draw(st.integers(0, 2 ** 16))
        scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
        family = draw(st.sampled_from([make_logistic, make_nonconvex_logistic]))
        obj = family(n, m, p, seed, scale=draw(st.sampled_from([0.5, 1.0, 4.0])))
        rng = np.random.default_rng(seed)
        return obj, scale * rng.normal(size=(n, p)), rng.integers(0, m, size=n)

    return hypothesis, draws()


# values_at's largest error relative to a long-double evaluation of the same
# sums, in units of float64's eps: over 400 draws of each family (seeds
# 0-399, margins up to |z| = 50) it measured 1.9 (ridge) and 2.4
# (nonconvex), where the earlier einsum and logaddexp form measured 11.2
# and 10.9; the bound leaves a margin of 3.3 over the largest
VALUES_AT_EPS_BOUND = 8.0


@pytest.mark.parametrize("family", [make_logistic, make_nonconvex_logistic])
def test_values_at_matches_long_double_reference(family):
    ld = np.longdouble
    if np.finfo(ld).eps >= 1e-16:
        pytest.skip("long double is no wider than float64 here")
    worst = 0.0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n, m, p = (int(v) for v in (rng.integers(1, 17), rng.integers(1, 65),
                                    rng.integers(1, 13)))
        obj = family(n, m, p, seed)
        k = int(rng.integers(1, 17))
        X = rng.normal(size=(k, p)) * rng.choice([1e-3, 1.0, 30.0], size=(k, 1))
        signed = signed_rows(obj).reshape(-1, p)
        X *= 50.0 / np.abs(X @ signed.T).max()  # the largest margin is 50
        Xl = X.astype(ld)
        z = Xl @ signed.astype(ld).T
        loss = np.log1p(np.exp(-np.abs(z))) - np.minimum(z, 0)
        if obj.family == "logistic":
            reg = 0.5 * ld(obj.rho) * np.sum(Xl * Xl, axis=1)
        else:
            reg = 0.5 * ld(obj.eta) * np.sum(Xl * Xl / (1 + Xl * Xl), axis=1)
        ref = loss.sum(axis=1) / loss.shape[1] + reg
        worst = max(worst, float(np.max(np.abs((obj.values_at(X) - ref) / ref))))
    assert worst <= VALUES_AT_EPS_BOUND * np.finfo(float).eps


@pytest.mark.parametrize("family", [make_logistic, make_nonconvex_logistic])
def test_values_at_keeps_the_inf_and_nan_of_logaddexp(family):
    obj = family(4, 6, 3, seed=2)
    inf, nan = np.inf, np.nan
    X = np.array([[0.3, -0.2, 0.1], [inf, 0.0, 0.0], [-inf, 1.0, 0.0],
                  [0.0, nan, 0.0], [inf, -inf, 0.0], [1e300, 1e300, 0.0]])
    with np.errstate(all="ignore"):
        got = obj.values_at(X)
        z = np.einsum("imp,jp->imj", signed_rows(obj), X)
        want = np.logaddexp(0.0, -z).mean(axis=(0, 1)) + obj._reg_value(X)
    for test in (np.isnan, np.isposinf, np.isneginf, np.isfinite):
        assert np.array_equal(test(got), test(want))
    assert np.isfinite(got[0]) and not np.isfinite(got[1:]).any()


def test_logistic_row_wise_regularizer_is_bit_equal_to_per_row_list():
    hypothesis, draws = _logistic_draws()

    def per_row(obj, X):
        # the per-agent list `values_at` built before the row-wise form
        if obj.family == "logistic":
            return np.array([0.5 * obj.rho * float(x @ x) for x in X])
        return np.array([0.5 * obj.eta * float(np.sum(x * x / (1.0 + x * x)))
                         for x in X])

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(draws)
    def check(drawn):
        obj, X, _ = drawn
        assert np.array_equal(obj._reg_value(X), per_row(obj, X))
        signed = signed_rows(obj)
        # one point takes the same expression as a stack of points
        for x, want_reg in zip(X, per_row(obj, X)):
            assert obj._reg_value(x) == want_reg
            assert obj.value(x) == float(np.mean(np.logaddexp(0.0, -(signed @ x)))) + want_reg
        # values_at's loss, written out: one GEMM, then the log1p softplus
        z = X @ signed.reshape(-1, obj.p).T
        loss = np.log1p(np.exp(-np.abs(z))) - np.minimum(z, 0.0)
        want = loss.sum(axis=1) / loss.shape[1] + per_row(obj, X)
        assert np.array_equal(obj.values_at(X), want)

    check()


def test_logistic_perm_grads_bit_equal_to_unfolded_sigmoid():
    hypothesis, draws = _logistic_draws()

    def unfolded(obj, X, idx):
        # the formula before the sign flips were folded in
        rows = signed_rows(obj)[np.arange(obj.n), idx]
        z = np.einsum("ip,ip->i", rows, X)
        sigmoid = lambda v: 0.5 * (1.0 + np.tanh(0.5 * v))  # noqa: E731
        return -sigmoid(-z)[:, None] * rows + obj._reg_grad(X)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(draws)
    def check(drawn):
        obj, X, idx = drawn
        assert np.array_equal(step_grads(obj, X, idx), unfolded(obj, X, idx))

    check()


def test_value_and_grad_bit_equal_to_separate_calls():
    hypothesis, draws = _logistic_draws()

    def reference(obj, x):
        # value and grad as computed before they shared one product
        z = signed_rows(obj) @ x
        sigmoid = 0.5 * (1.0 + np.tanh(0.5 * -z))
        value = float(np.mean(np.logaddexp(0.0, -z))) + obj._reg_value(x)
        grad = np.einsum("im,imp->p", -sigmoid / (obj.n * obj.m), signed_rows(obj))
        return value, grad + obj._reg_grad(x)

    def same(obj, x, want):
        value, grad = obj.value_and_grad(x)
        assert value == want[0] == obj.value(x) and type(value) is float
        assert np.array_equal(grad, want[1]) and np.array_equal(obj.grad(x), want[1])

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(draws)
    def check(drawn):
        obj, X, _ = drawn
        for x in X:
            same(obj, x, reference(obj, x))

    check()
    quad = make_quadratic(4, 3, 5, seed=2)
    x = np.random.default_rng(2).normal(size=5)
    same(quad, x, (quad.value(x), quad.grad(x)))


def test_make_quadratic_l_matches_component_eigvalsh():
    for seed in range(4):
        for condition in (1.0, 2.0, 10.0, 1e3):
            obj = make_quadratic(5, 4, 6, seed=seed, condition=condition)
            A, b = matrix_form(5, 4, 6, seed, condition=condition)[:2]
            dense = QuadraticObjective(A, b).constants.L
            assert obj.constants.L == pytest.approx(dense, rel=1e-13, abs=0)
            assert obj.constants.L == pytest.approx(condition, rel=1e-15, abs=0)


def test_separable_quadratic_rejects_bad_shapes_and_curvatures():
    with pytest.raises(ValueError, match="targets"):
        SeparableQuadratic(np.ones(3), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="singular"):
        SeparableQuadratic(np.array([1.0, 0.0]), np.zeros((1, 1, 2)))


def test_closed_form_quadratic_equals_the_general_class_on_its_matrix_form():
    """Every oracle and constant of `make_quadratic`'s closed form against
    `QuadraticObjective` on the same seed's matrices.  Values are compared to
    1e-12 of their natural size L * big^2, gradients to 1e-12 of L * big and
    x* to 1e-12 of big * condition, with big the largest |target| or |x|;
    mu within 1e-12 of L, and L within one rounding: the matrix form took
    `scale.max() ** 2`, a scalar power that can land one ulp off the
    correctly rounded square the closed form keeps."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 6), m=st.integers(1, 5), p=st.integers(1, 7),
        seed=st.integers(0, 2 ** 16),
        condition=st.sampled_from([1.0, 2.0, 10.0, 1e3]) | st.floats(1.0, 1e3),
        hetero=st.floats(0.0, 3.0), spread=st.floats(0.0, 3.0),
        consistent=st.booleans())
    def check(n, m, p, seed, condition, hetero, spread, consistent):
        kw = dict(condition=condition, hetero=hetero, spread=spread,
                  consistent=consistent)
        closed, ref = make_quadratic(n, m, p, seed, **kw), general(n, m, p, seed, **kw)
        rng = np.random.default_rng(seed)
        X = closed.x_star + 3.0 * rng.normal(size=(n, p))
        idx = rng.integers(m, size=n)
        big = max(1.0, float(np.abs(closed.targets).max()), float(np.abs(X).max()))
        L = ref.constants.L
        tol_f, tol_g = 1e-12 * L * big ** 2, 1e-12 * L * big

        def close(got, want, tol):
            assert np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0) <= tol

        assert closed.constants.L == pytest.approx(L, rel=2.3e-16, abs=0)
        close(closed.constants.mu, ref.constants.mu, 1e-12 * L)
        close(closed.x_star, ref.x_star, 1e-12 * big * condition)
        for name in ("f_star", "f_star_agents", "f_star_components"):
            close(getattr(closed.constants, name), getattr(ref.constants, name), tol_f)
        assert closed.constants.f_star_components == 0.0
        close(step_grads(closed, X, idx), step_grads(ref, X, idx), tol_g)
        close(closed.stacked_agent_grads(X), ref.stacked_agent_grads(X), tol_g)
        close(closed.grads_at_consensus(X[0]), ref.grads_at_consensus(X[0]), tol_g)
        close(closed.values_at(X), ref.values_at(X), tol_f)
        for i, x in enumerate(X):
            close(closed.value(x), ref.value(x), tol_f)
            close(closed.grad(x), ref.grad(x), tol_g)
            close(closed.agent_grad(i, x), ref.agent_grad(i, x), tol_g)
            value, grad = closed.value_and_grad(x)
            assert value == closed.value(x) and np.array_equal(grad, closed.grad(x))
            for l in range(m):
                close(closed.component_value(i, l, x), ref.component_value(i, l, x), tol_f)
                close(closed.component_grad(i, l, x), ref.component_grad(i, l, x), tol_g)

    check()


@pytest.mark.parametrize("family", ["logistic", "ncvx-logistic"])
def test_logistic_perm_grads_equal_the_gathered_expression_bit_for_bit(family, rng):
    # perm_grads keeps the bits of the signed-row expression, also where the
    # margins saturate the slope
    make = make_logistic if family == "logistic" else make_nonconvex_logistic
    obj = make(6, 5, 4, seed=3, scale=2.0)
    for scale in (1.0, 1e3):
        X = scale * rng.normal(size=(6, 4))
        idx = rng.integers(0, 5, size=6)
        rows = signed_rows(obj)[np.arange(6), idx]
        z = np.einsum("ip,ip->i", rows, X)
        expected = loss_slope(z)[:, None] * rows + obj._reg_grad(X)
        got = step_grads(obj, X, idx)
        assert got.tobytes() == expected.tobytes()
    assert np.isin(loss_slope(z), (0.0, -1.0)).any()  # saturated margins were drawn


@pytest.mark.parametrize("family", [make_logistic, make_nonconvex_logistic])
def test_logistic_oracles_equal_the_signed_sample_form_bit_for_bit(family):
    # the stored rows are -u_j v_j / 2, and every oracle keeps the bits of
    # the formulas on the signed rows, also where the margins saturate
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def same(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 9), st.integers(1, 6), st.integers(1, 12),
                      st.integers(0, 2 ** 16), st.sampled_from([0.5, 1.0, 4.0]),
                      st.sampled_from([1e-3, 1.0, 30.0]))
    def check(n, m, p, seed, data_scale, x_scale):
        obj = family(n, m, p, seed, scale=data_scale)
        ref = SignedLogistic(obj, *samples(n, m, p, seed, scale=data_scale))
        assert np.array_equal(signed_rows(obj), ref.signed)
        rng = np.random.default_rng(seed)
        X = x_scale * rng.normal(size=(n, p))
        x = X[0]
        idx = rng.integers(0, m, size=n)
        i, l = int(rng.integers(n)), int(rng.integers(m))
        same(step_grads(obj, X, idx), ref.perm_grads(X, idx))
        same(obj.component_value(i, l, x), ref.component_value(i, l, x))
        same(obj.component_grad(i, l, x), ref.component_grad(i, l, x))
        same(obj.agent_grad(i, x), ref.agent_grad(i, x))
        same(obj.stacked_agent_grads(X), ref.stacked_agent_grads(X))
        same(obj.grads_at_consensus(x), ref.grads_at_consensus(x))
        same(obj.value(x), ref.value(x))
        same(obj.grad(x), ref.grad(x))
        for got, want in zip(obj.value_and_grad(x), ref.value_and_grad(x)):
            same(got, want)
        same(obj.values_at(X), ref.values_at(X))

    check()


def _former_perm_grads(obj, X, idx):
    """perm_grads as each family computed it from one step's indices idx,
    gathering that step's samples itself."""
    if isinstance(obj, QuadraticObjective):
        ar = np.arange(obj.n)
        Ag = obj.A[ar, idx]
        r = np.einsum("ikp,ip->ik", Ag, X) - obj.b[ar, idx]
        return np.einsum("ikp,ik->ip", Ag, r)
    rows = obj._rows.take(np.arange(obj.n) * obj.m + idx, axis=0)
    if isinstance(obj, SeparableQuadratic):
        np.subtract(X, rows, out=rows)
        rows *= obj.d
        return rows
    w = np.einsum("ip,ip->i", rows, X)
    np.tanh(w, out=w)
    w += 1.0
    rows *= w[:, None]
    rows += obj._reg_grad(X)
    return rows


def test_perm_grads_on_step_samples_equal_the_former_per_step_gather():
    # one gather per epoch gives every step the bits its own gather gave, for
    # per-agent and centralized (broadcast) orders and saturated margins; the
    # oracle writes into neither its samples nor X
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    makers = {"separable": make_quadratic, "matrix": general,
              "logistic": make_logistic, "ncvx-logistic": make_nonconvex_logistic}
    saturated = []

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(sorted(makers)), st.integers(1, 7),
                      st.integers(1, 5), st.integers(1, 8), st.integers(0, 2 ** 16),
                      st.sampled_from([1e-3, 1.0, 1e3]), st.booleans())
    def check(family, n, m, p, seed, x_scale, centralized):
        obj = makers[family](n, m, p, seed)
        rng = np.random.default_rng(seed)
        X = x_scale * rng.normal(size=(n, p))
        if centralized:
            orders = np.broadcast_to(rng.permutation(m), (n, m))
        else:
            orders = np.argsort(rng.random((n, m)), axis=1)
        samples = obj.step_samples(orders)
        kept, X_kept = samples.tobytes(), X.tobytes()
        assert len(samples) == m
        for ell in range(m):
            got = obj.perm_grads(X, samples[ell])
            want = _former_perm_grads(obj, X, orders[:, ell].copy())
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert obj.perm_grads(X, samples[ell]).tobytes() == got.tobytes()
            if "logistic" in family:
                slope = 1.0 + np.tanh(np.einsum("ip,ip->i", samples[ell], X))
                saturated.append(np.isin(slope, (0.0, 2.0)).any())
        assert samples.tobytes() == kept and X.tobytes() == X_kept

    check()
    assert any(saturated)
