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
    norms = np.sum(obj.feats ** 2, axis=2)
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
