"""The mixing operator: a neighbour gather on large sparse graphs, the dense
W everywhere else, and the same trajectories either way."""

import numpy as np
import pytest

from netshuffle import algorithms
from netshuffle.objective import make_quadratic
from netshuffle.shuffling import PermutationStream
from netshuffle.topology import (GATHER_MIN_N, GATHER_PER_ROW, NeighborGather,
                                 build_graph, lazify, metropolis_weights)
from netshuffle.unified import AbcEngine, gtrr_operator

ALPHA = 0.02


def test_gather_equals_dense_product_on_random_sparse_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def sparse_graphs(draw):
        n = draw(st.integers(GATHER_MIN_N, GATHER_MIN_N + 64))
        cap = n // GATHER_PER_ROW - 1  # neighbours per agent, beside itself
        order = draw(st.permutations(range(n)))
        edges = {(min(i, j), max(i, j)) for i, j in zip(order, order[1:])}
        degree = np.bincount(np.array(sorted(edges)).ravel(), minlength=n)
        node = st.integers(0, n - 1)
        for i, j in draw(st.lists(st.tuples(node, node), max_size=n)):
            edge = (min(i, j), max(i, j))
            if i != j and edge not in edges and max(degree[i], degree[j]) < cap:
                edges.add(edge)
                degree[[i, j]] += 1
        return build_graph("custom", n=n, edges=edges)

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(sparse_graphs(), st.sampled_from([0.0, 0.5]),
                      st.integers(0, 2 ** 32 - 1), st.sampled_from([(), (1,), (5,), (16,)]))
    def check(g, tau, seed, trailing):
        mix = metropolis_weights(g)
        if tau:
            mix = lazify(mix, tau)
        op = mix.operator
        assert isinstance(op, NeighborGather)
        assert op.per_row == np.count_nonzero(mix.w, axis=1).max()
        X = np.random.default_rng(seed).normal(size=(g.n, *trailing))
        dense = mix.w @ X
        got = op @ X
        assert got.shape == dense.shape
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))

    check()


@pytest.mark.parametrize("graph", [
    build_graph("ring", n=16),
    build_graph("ring", n=GATHER_MIN_N - 1),
    build_graph("complete", n=GATHER_MIN_N),
    build_graph("star", n=2 * GATHER_MIN_N),
], ids=["ring16", "ring-below-threshold", "complete", "star"])
def test_small_or_dense_matrices_mix_with_w_itself(graph):
    mix = metropolis_weights(graph)
    assert mix.operator is mix.w
    obj = make_quadratic(graph.n, 2, 2, seed=1)
    assert algorithms.make_method("gtrr", obj, mix, seed=0).W is mix.w


@pytest.fixture(scope="module")
def big_ring():
    return lazify(metropolis_weights(build_graph("ring", n=GATHER_MIN_N)), 0.5)


@pytest.fixture(scope="module")
def big_quad():
    return make_quadratic(GATHER_MIN_N, 4, 3, seed=5, condition=2.0)


@pytest.mark.parametrize("name", ["gtrr", "edrr", "edrr-pd"])
def test_gather_runs_match_dense_runs(name, big_ring, big_quad):
    x0 = algorithms.initial_iterates(big_quad, "random", run_seed=3)
    states = []
    for dense in (False, True):
        if name == "edrr-pd":  # the primal-dual reference, which no name selects
            machine = algorithms.EDRRPrimalDual(big_quad, big_ring,
                                                PermutationStream(3, "rr"))
        else:
            machine = algorithms.make_method(name, big_quad, big_ring, seed=3)
        assert machine.W is big_ring.operator
        assert isinstance(machine.W, NeighborGather)
        if dense:
            machine.W = big_ring.w
        machine.reset(x0)
        for t in range(5):
            machine.epoch(t, ALPHA)
        states.append(machine.abc_state(ALPHA))
    (X, S), (X_dense, S_dense) = states
    assert np.linalg.norm(X - X_dense) <= 1e-12 * np.linalg.norm(X_dense)
    assert np.linalg.norm(S - S_dense) <= 1e-12 * np.linalg.norm(S_dense)


def test_native_gtrr_matches_abc_engine_with_gather(big_ring, big_quad):
    x0 = algorithms.initial_iterates(big_quad, "same", 1.0, init_seed=3)
    native = algorithms.GTRR(big_quad, big_ring, PermutationStream(3, "rr"))
    engine = AbcEngine(gtrr_operator(big_ring), big_quad, PermutationStream(3, "rr"))
    assert isinstance(engine.W, NeighborGather)
    for machine in (native, engine):
        machine.reset(x0)
    for t in range(5):
        native.epoch(t, ALPHA)
        engine.epoch(t, ALPHA)
        gap = np.linalg.norm(native.X - engine.X) / max(1.0, np.linalg.norm(native.X))
        assert gap < 1e-9
