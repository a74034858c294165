import math
from contextlib import contextmanager

import numpy as np
import pytest

from netshuffle import shuffling
from netshuffle.shuffling import PURPOSE_PERM, PermutationStream, keyed_rng, rr_variance


def _fresh_orders(seed, mode, n, epoch, m):
    """(n, m) orders drawn from one new keyed generator per agent."""
    rows = []
    for agent in range(n):
        fresh = keyed_rng(seed, PURPOSE_PERM, agent, 0 if mode == "once" else epoch)
        rows.append(fresh.integers(0, m, size=m) if mode == "iid" else fresh.permutation(m))
    return np.array(rows, dtype=np.int64).reshape(n, m)


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


@pytest.mark.parametrize("mode", ["rr", "once", "iid"])
def test_memo_serves_the_draws_of_fresh_keyed_generators(mode, rng):
    # every (seed, shape, epoch) is asked for twice, the asks shuffled, so
    # some are served from the stream's two kept epochs and the rest drawn
    # again; 17 and 2^64 + 17 share a key
    shapes = [(3, 5), (4, 11), (3, 11), (300, 2), (1, 1)]
    asks = [(seed, shape, epoch) for seed in (2 ** 64 + 17, 17, 5)
            for shape in shapes for epoch in (0, 1, 40)] * 2
    streams = {seed: PermutationStream(seed, mode) for seed in (2 ** 64 + 17, 17, 5)}
    for j in rng.permutation(len(asks)):
        seed, (n, m), epoch = asks[j]
        orders = streams[seed].epoch_orders(n, epoch, m)
        assert orders.dtype == np.int64 and orders.flags.writeable
        assert np.array_equal(orders, _fresh_orders(seed, mode, n, epoch, m))
        assert len(streams[seed]._kept) <= 2


@pytest.mark.parametrize("mode", ["rr", "iid"])
def test_mutating_returned_orders_leaves_the_next_call_alone(mode):
    stream = PermutationStream(3, mode)
    expected = _fresh_orders(3, mode, 6, 2, 9)
    for _ in range(3):  # the draw, then two reads of the kept draw
        orders = stream.epoch_orders(6, 2, 9)
        assert np.array_equal(orders, expected)
        orders[:] = -1
    assert np.array_equal(PermutationStream(3, mode).epoch_orders(6, 2, 9), expected)


@pytest.mark.parametrize("mode", ["rr", "once"])
def test_stream_keeps_the_newest_two_epochs(monkeypatch, mode):
    drawn, fill = [], PermutationStream._fill

    def counted_fill(self, epoch, *args, **kwargs):
        drawn.append(epoch)
        return fill(self, epoch, *args, **kwargs)

    monkeypatch.setattr(PermutationStream, "_fill", counted_fill)
    stream = PermutationStream(8, mode)
    # lockstep asks: each epoch by two methods, one of them a step ahead
    for epoch in (0, 0, 1, 1, 2, 1, 2, 0):
        assert np.array_equal(stream.epoch_orders(4, epoch, 10),
                              _fresh_orders(8, mode, 4, epoch, 10))
        assert len(stream._kept) <= 2
    # epoch 0 left when epoch 2 came; 'once' keys every epoch to epoch 0
    assert drawn == ([0, 1, 2, 0] if mode == "rr" else [0])


SEEDS = (0, 17, 2 ** 64 + 17, 2 ** 64 - 1)
TOP = 2 ** 24 - 1  # the largest agent and epoch a key holds


@contextmanager
def _path(path):
    """Make `_fill` draw with the kernel ("kernel") or the per-agent loop
    ("loop") whatever the shape, or as the crossovers choose (None)."""
    saved = shuffling.KERNEL_CROSSOVERS
    forced = {"kernel": (1, 2 ** 31), "loop": (2 ** 31, 0)}.get(path)
    if forced:
        shuffling.KERNEL_CROSSOVERS = dict.fromkeys(saved, forced)
    try:
        yield
    finally:
        shuffling.KERNEL_CROSSOVERS = saved


def _check_kernel_equals_loop(seed, mode, m, lanes, near_top):
    """The kernel's draw, the loop's and the one the crossovers choose are
    equal, at agent 0 and epoch 3 or at the top of the key range."""
    agent, epoch = (2 ** 24 - lanes, TOP) if near_top else (0, 3)
    stream = PermutationStream(seed, mode)
    draws = []
    for path in ("loop", "kernel", None):
        with _path(path):
            draws.append(stream._fill(epoch, m, agent, lanes))
    for drawn in draws[1:]:
        assert drawn.dtype == np.int64 and drawn.flags.c_contiguous
        assert np.array_equal(drawn, draws[0])


@pytest.mark.parametrize("m", range(1, shuffling.KERNEL_CROSSOVERS["permutation"][1] + 1))
def test_kernel_permutations_equal_the_loop(m):
    # every m the kernel draws, m = 5, 9 and 13 among those whose masks
    # reject most; lane counts on both sides of the crossover
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fewest = shuffling.KERNEL_CROSSOVERS["permutation"][0]

    @hypothesis.settings(derandomize=True, max_examples=12, deadline=None)
    @hypothesis.given(st.sampled_from(SEEDS), st.sampled_from(["rr", "once"]),
                      st.sampled_from([1, 2, fewest - 1, fewest, fewest + 44]), st.booleans())
    def check(seed, mode, lanes, near_top):
        _check_kernel_equals_loop(seed, mode, m, lanes, near_top)

    check()


def test_kernel_integers_equal_the_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fewest, largest = shuffling.KERNEL_CROSSOVERS["iid"]

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from(SEEDS), st.integers(1, largest),
                      st.sampled_from([1, fewest - 1, fewest, fewest + 36]), st.booleans())
    @hypothesis.example(2 ** 64 - 1, largest, fewest, True)
    def check(seed, m, lanes, near_top):
        _check_kernel_equals_loop(seed, "iid", m, lanes, near_top)

    check()


def test_a_lane_short_of_words_is_finished_by_the_loop(monkeypatch):
    # at epoch 2^24 - 1, seed 17's agent 645 takes more than the 16 words of
    # the two blocks an m = 8 draw starts with; the kernel makes one Philox
    # pass, and the re-keyed generator draws that lane alone
    firsts, looped = [], []
    words, draw_each = shuffling._philox_words, PermutationStream._draw_each

    def recorded(key0, key1, first, blocks):
        firsts.append((first, blocks, len(key1)))
        return words(key0, key1, first, blocks)

    def recorded_loop(self, keys, m):
        looped.append(keys[:, 1] >> 24 & (2 ** 24 - 1))
        return draw_each(self, keys, m)

    monkeypatch.setattr(shuffling, "_philox_words", recorded)
    monkeypatch.setattr(PermutationStream, "_draw_each", recorded_loop)
    stream = PermutationStream(17, "rr")
    with _path("kernel"):
        drawn = stream._fill(TOP, 8, 600, 300)
    assert firsts == [(1, 2, 300)]
    assert [agents.tolist() for agents in looped] == [[645]]
    with _path("loop"):
        assert np.array_equal(drawn, stream._fill(TOP, 8, 600, 300))


@pytest.mark.parametrize("high", [3 * 2 ** 30, 2 ** 31 + 1, 2 ** 32 - 1, 7, 8])
def test_kernel_integers_reject_as_numpy_does(high):
    # at high = 3 * 2^30 numpy's bounded draw rejects a quarter of the words,
    # so most lanes need more words than the blocks drawn first hold
    keys = shuffling._philox_keys(2 ** 64 - 1, PURPOSE_PERM, 3, 0, 40)
    drawn = shuffling._kernel_integers(2 ** 64 - 1, keys[:, 1].copy(), high, 20)
    for agent, row in enumerate(drawn):
        fresh = keyed_rng(2 ** 64 - 1, PURPOSE_PERM, agent, 3)
        assert np.array_equal(row, fresh.integers(0, high, size=20))


def test_independent_streams_change_with_master_seed():
    a = PermutationStream(1, "rr").permutation(0, 0, 30)
    b = PermutationStream(2, "rr").permutation(0, 0, 30)
    assert not np.array_equal(a, b)


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


def test_variance_rejects_m_above_enumeration_limit(rng):
    rr_variance(rng.normal(size=(7, 2)), 3)
    with pytest.raises(ValueError, match="m <= 7"):
        rr_variance(rng.normal(size=(8, 2)), 3)
