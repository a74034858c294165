import math

import numpy as np
import pytest

from netshuffle.shuffling import PURPOSE_PERM, PermutationStream, keyed_rng, rr_variance


def test_single_component_is_identity():
    stream = PermutationStream(1, "rr")
    for t in range(5):
        assert stream.permutation(0, t, 1).tolist() == [0]


def test_same_key_same_permutation():
    stream = PermutationStream(42, "rr")
    a = stream.permutation(3, 7, 20)
    b = stream.permutation(3, 7, 20)
    assert np.array_equal(a, b)
    assert sorted(a.tolist()) == list(range(20))


def test_reshuffle_differs_across_epochs_and_agents():
    stream = PermutationStream(42, "rr")
    perms = {tuple(stream.permutation(i, t, 12)) for i in range(4) for t in range(4)}
    assert len(perms) > 10  # 16 draws of 12! orderings essentially never collide


def test_shuffle_once_repeats_per_agent():
    stream = PermutationStream(9, "once")
    first = stream.permutation(2, 0, 8)
    assert np.array_equal(first, stream.permutation(2, 5, 8))
    assert not np.array_equal(first, stream.permutation(3, 0, 8))


def test_iid_mode_draws_with_replacement():
    stream = PermutationStream(5, "iid")
    draws = stream.permutation(0, 0, 6)
    assert draws.shape == (6,)
    assert draws.min() >= 0 and draws.max() < 6
    hits = [tuple(stream.permutation(0, t, 6)) for t in range(200)]
    assert any(len(set(h)) < 6 for h in hits)  # collisions happen w.r.


@pytest.mark.parametrize("mode", ["rr", "once", "iid"])
def test_stream_draws_equal_fresh_keyed_generators(mode, rng):
    # the stream re-keys one generator in place; every draw must equal the
    # one from a generator built for its key, whatever order they come in
    stream = PermutationStream(2 ** 64 + 17, mode)
    m = 11
    keys = [(agent, epoch) for agent in (0, 1, 5, 300) for epoch in (0, 1, 2, 40)]
    for j in rng.permutation(len(keys)):
        agent, epoch = keys[j]
        fresh = keyed_rng(2 ** 64 + 17, PURPOSE_PERM, agent,
                          0 if mode == "once" else epoch)
        expected = fresh.integers(0, m, size=m) if mode == "iid" else fresh.permutation(m)
        assert np.array_equal(stream.permutation(agent, epoch, m), expected)
    orders = stream.epoch_orders(4, 3, m)
    for agent in range(4):
        assert np.array_equal(orders[agent], stream.permutation(agent, 3, m))


def test_independent_streams_change_with_master_seed():
    a = PermutationStream(1, "rr").permutation(0, 0, 30)
    b = PermutationStream(2, "rr").permutation(0, 0, 30)
    assert not np.array_equal(a, b)


def test_uniformity_chi_square_m3():
    # 120000 epochs at m=3: each of the 6 orderings within 20000 +- 500
    stream = PermutationStream(12345, "rr")
    counts = {}
    for t in range(120_000):
        key = tuple(stream.permutation(0, t, 3))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    assert max(abs(c - 20_000) for c in counts.values()) <= 500


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_partial_mean_variance_matches_closed_form(m, rng):
    X = rng.normal(size=(m, 3))
    for ell in range(1, m + 1):
        empirical, predicted = rr_variance(X, ell)
        assert abs(empirical - predicted) <= 1e-12


def test_variance_full_pass_is_zero(rng):
    X = rng.normal(size=(5, 2))
    empirical, predicted = rr_variance(X, 5)
    assert empirical == 0.0 and predicted == 0.0


def test_variance_single_draw_is_population_variance(rng):
    X = rng.normal(size=(6, 4))
    xbar = X.mean(axis=0)
    sigma2 = float(np.mean(np.sum((X - xbar) ** 2, axis=1)))
    empirical, predicted = rr_variance(X, 1)
    assert predicted == pytest.approx(sigma2, rel=1e-12)
    assert empirical == pytest.approx(sigma2, rel=1e-9)


def test_variance_m4_l2_exact_third(rng):
    X = rng.normal(size=(4, 3))
    xbar = X.mean(axis=0)
    sigma2 = float(np.mean(np.sum((X - xbar) ** 2, axis=1)))
    empirical, predicted = rr_variance(X, 2)
    assert predicted == pytest.approx(sigma2 / 3.0, rel=1e-12)
    assert empirical == pytest.approx(sigma2 / 3.0, rel=1e-12)
    # brute force over all 24 permutations, independently of rr_variance
    total = 0.0
    from itertools import permutations
    for perm in permutations(range(4)):
        d = X[list(perm[:2])].mean(axis=0) - xbar
        total += d @ d
    assert empirical == pytest.approx(total / math.factorial(4), rel=1e-12)


def test_variance_input_validation(rng):
    with pytest.raises(ValueError):
        rr_variance(rng.normal(size=(1, 2)), 1)
    with pytest.raises(ValueError):
        rr_variance(rng.normal(size=(4, 2)), 0)
    with pytest.raises(ValueError):
        rr_variance(rng.normal(size=(4, 2)), 5)
