import numpy as np
import pytest

from netshuffle.objective import (ESTIMATED, EXACT, UNAVAILABLE,
                                  QuadraticObjective, central_difference_grad,
                                  make_logistic, make_nonconvex_logistic,
                                  make_quadratic)
from netshuffle.shuffling import PURPOSE_MC, keyed_rng

FAMILIES = {
    "quadratic": lambda: make_quadratic(3, 4, 5, seed=5, condition=4.0),
    "logistic": lambda: make_logistic(3, 4, 5, seed=5, rho=0.2),
    "ncvx": lambda: make_nonconvex_logistic(3, 4, 5, seed=5, eta=0.2),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_component_grads_match_central_differences(family, rng):
    obj = FAMILIES[family]()
    for _ in range(100):
        i = int(rng.integers(obj.n))
        l = int(rng.integers(obj.m))
        x = rng.normal(size=obj.p) * 2.0
        g = obj.component_grad(i, l, x)
        ghat = central_difference_grad(lambda z: obj.component_value(i, l, z), x)
        assert np.linalg.norm(g - ghat) <= 1e-6 * (1.0 + np.linalg.norm(g))


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
    stacked = obj.perm_grads(X, idx)
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
    obj = make_quadratic(n, m, p, seed=7, condition=condition)
    rng = keyed_rng(7, PURPOSE_MC, agent=2, epoch=0)
    s = np.logspace(0.0, 0.5 * np.log10(condition), p)
    for i in range(n):
        for l in range(m):
            q, _ = np.linalg.qr(rng.normal(size=(p, p)))
            assert np.array_equal(obj.A[i, l], q if condition == 1.0 else q * s)


def one_shot_quadratic(n, m, p, seed, condition=1.0, hetero=1.0, spread=1.0,
                       consistent=False):
    """A and b of `make_quadratic` from one (n, m, p, p) draw and one QR of
    the whole stack."""
    rng = keyed_rng(seed, PURPOSE_MC, agent=2, epoch=0)
    A = np.linalg.qr(rng.normal(size=(n, m, p, p)))[0]
    A *= np.logspace(0.0, 0.5 * np.log10(condition), p)
    x_hat = rng.normal(size=p)
    if consistent:
        targets = np.broadcast_to(x_hat, (n, m, p)).copy()
    else:
        h = hetero * rng.normal(size=(n, 1, p))
        xi = spread * rng.normal(size=(n, m, p))
        targets = x_hat + h + xi
    return A, np.einsum("imkp,imp->imk", A, targets)


# m * p * p = 2048 floats per agent puts 64 agents in a block, so n = 150 ends
# on a partial block; an agent of m * p * p = 2 * 300 * 300 floats exceeds one
@pytest.mark.parametrize("n,m,p,kw", [
    (150, 8, 16, {}),
    (150, 8, 16, {"condition": 30.0, "hetero": 2.0, "spread": 0.5}),
    (70, 8, 16, {"consistent": True, "condition": 4.0}),
    (3, 2, 300, {"condition": 2.0}),
], ids=["partial-block", "condition", "consistent", "agent-above-block"])
def test_make_quadratic_blocks_equal_one_shot_construction(n, m, p, kw):
    obj = make_quadratic(n, m, p, seed=4, **kw)
    A, b = one_shot_quadratic(n, m, p, 4, **kw)
    assert obj.A.tobytes() == A.tobytes()
    assert obj.b.tobytes() == b.tobytes()
    assert obj.x_star.tobytes() == QuadraticObjective(A, b).x_star.tobytes()
    # the blocked eigvalsh finds the one-shot stacked L
    L = float(np.linalg.eigvalsh(np.swapaxes(A, 2, 3) @ A)[..., -1].max())
    assert QuadraticObjective(obj.A, obj.b).constants.L == L


@pytest.mark.parametrize("n,m,p,condition", [(512, 8, 16, 1.0), (16, 6, 5, 100.0)])
def test_quadratic_blas_grams_match_einsum_forms(n, m, p, condition):
    obj = make_quadratic(n, m, p, seed=0, condition=condition)
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
    norms = np.sum(obj.signed ** 2, axis=2)
    assert obj.constants.L == pytest.approx(norms.max() / 4.0 + 0.2)
    assert obj.constants.tag("f_star") == ESTIMATED
    assert obj.constants.tag("f_star_components") == UNAVAILABLE


def test_logistic_ridge_gradient_term(rng):
    obj = make_logistic(2, 3, 4, seed=2, rho=0.2)
    x = rng.normal(size=4)
    row = obj.signed[0, 0]
    z = row @ x
    data_part = -row / (1.0 + np.exp(z))
    assert np.allclose(obj.component_grad(0, 0, x) - data_part, 0.2 * x, atol=1e-12)


def test_logistic_estimated_minimum_is_near_stationary():
    obj = make_logistic(3, 6, 4, seed=8, rho=0.2)
    from netshuffle.objective import estimate_minimum
    f_star, x_star = estimate_minimum(obj.value, obj.grad, obj.p, obj.constants.L)
    assert np.linalg.norm(obj.grad(x_star)) <= 1e-10
    assert obj.constants.f_star == pytest.approx(f_star, rel=1e-12)


def test_logistic_hessian_norm_below_stored_L(rng):
    obj = make_logistic(3, 5, 4, seed=4, rho=0.2)
    signed = obj.signed.reshape(-1, obj.p)
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
        return 0.0, np.zeros(p)

    monkeypatch.setattr(objective, "estimate_minimum", counted)
    return calls


def test_logistic_minimum_is_estimated_on_first_read_of_constants(monkeypatch, rng):
    calls = _count_estimates(monkeypatch)
    obj = make_nonconvex_logistic(3, 4, 5, 5)
    x = rng.normal(size=obj.p)
    obj.component_grad(1, 2, x)
    obj.perm_grads(np.tile(x, (obj.n, 1)), np.zeros(obj.n, dtype=int))
    assert len(calls) == 0
    c = obj.constants
    assert c.L > 0 and c.mu is None and c.tag("f_star") == ESTIMATED
    assert len(calls) == 0
    assert c.f_star == 0.0
    assert len(calls) == 1
    assert obj.constants.f_star == 0.0 and obj.constants is c
    assert len(calls) == 1


def test_quadratic_minima_wait_for_first_read(monkeypatch):
    calls = {"svd": 0, "solve": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    obj = make_quadratic(6, 3, 4, seed=2, condition=3.0)
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
        # one point takes the same expression as a stack of points
        for x, want_reg in zip(X, per_row(obj, X)):
            assert obj._reg_value(x) == want_reg
            assert obj.value(x) == float(np.mean(np.logaddexp(0.0, -(obj.signed @ x)))) + want_reg
        z = np.einsum("imp,jp->imj", obj.signed, X)
        want = np.logaddexp(0.0, -z).mean(axis=(0, 1)) + per_row(obj, X)
        assert np.array_equal(obj.values_at(X), want)

    check()


def test_logistic_perm_grads_bit_equal_to_unfolded_sigmoid():
    hypothesis, draws = _logistic_draws()

    def unfolded(obj, X, idx):
        # the formula before the sign flips were folded in
        rows = obj.signed[np.arange(obj.n), idx]
        z = np.einsum("ip,ip->i", rows, X)
        sigmoid = lambda v: 0.5 * (1.0 + np.tanh(0.5 * v))  # noqa: E731
        return -sigmoid(-z)[:, None] * rows + obj._reg_grad(X)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(draws)
    def check(drawn):
        obj, X, idx = drawn
        assert np.array_equal(obj.perm_grads(X, idx), unfolded(obj, X, idx))

    check()


def test_value_and_grad_bit_equal_to_separate_calls():
    hypothesis, draws = _logistic_draws()

    def reference(obj, x):
        # value and grad as computed before they shared one product
        z = obj.signed @ x
        sigmoid = 0.5 * (1.0 + np.tanh(0.5 * -z))
        value = float(np.mean(np.logaddexp(0.0, -z))) + obj._reg_value(x)
        grad = np.einsum("im,imp->p", -sigmoid / (obj.n * obj.m), obj.signed)
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
            dense = QuadraticObjective(obj.A, obj.b).constants.L
            assert obj.constants.L == pytest.approx(dense, rel=1e-13, abs=0)
            assert obj.constants.L == pytest.approx(condition, rel=1e-15, abs=0)
