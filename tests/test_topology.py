import numpy as np
import pytest

from netshuffle.topology import (MixingMatrix, TopologyError, build_graph,
                                 lazify, metropolis_weights, psd_sqrt,
                                 spectral_info)


def test_ring16_every_node_has_two_neighbors():
    g = build_graph("ring", n=16)
    assert g.n == 16
    assert all(g.degree(i) == 2 for i in range(16))


def test_complete_one_node_has_no_edges():
    g = build_graph("complete", n=1)
    assert g.n == 1 and not g.edges


def test_grid_4x4_corner_and_interior_degrees():
    g = build_graph("grid", rows=4, cols=4)
    degs = sorted(g.degree(i) for i in range(16))
    corners = [0, 3, 12, 15]
    interior = [5, 6, 9, 10]
    assert all(g.degree(i) == 2 for i in corners)
    assert all(g.degree(i) == 4 for i in interior)
    assert degs.count(3) == 8


def test_disconnected_custom_graph_rejected():
    with pytest.raises(TopologyError, match="not connected"):
        build_graph("custom", n=4, edges=[(0, 1), (2, 3)])


def test_grid_dimension_mismatch_rejected():
    with pytest.raises(TopologyError):
        build_graph("grid", n=10, rows=4, cols=4)


@pytest.mark.parametrize("kind,n", [("ring", 16), ("grid", 16), ("star", 7),
                                    ("complete", 5)])
def test_metropolis_invariants(kind, n):
    if kind == "grid":
        g = build_graph(kind, rows=4, cols=4)
    else:
        g = build_graph(kind, n=n)
    w = metropolis_weights(g).w
    assert np.max(np.abs(w - w.T)) == 0.0
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
    assert w.min() >= 0.0
    adj = g.adjacency()
    off = ~np.eye(g.n, dtype=bool)
    assert np.array_equal(w[off] > 0, adj[off])
    assert np.all(np.diag(w) > 0)


def test_metropolis_complete4_all_quarters():
    w = metropolis_weights(build_graph("complete", n=4)).w
    assert np.allclose(w, 0.25, atol=0, rtol=0)


def test_metropolis_ring3_all_thirds():
    w = metropolis_weights(build_graph("ring", n=3)).w
    assert np.allclose(w, 1.0 / 3.0)


def test_metropolis_star3_leaf_self_weight():
    w = metropolis_weights(build_graph("star", n=3)).w
    assert w[1, 0] == pytest.approx(1.0 / 3.0)
    assert w[1, 1] == pytest.approx(2.0 / 3.0)


def test_spectral_ring16_matches_circulant_closed_form(ring16):
    k = np.arange(16)
    expected = np.sort((1.0 + 2.0 * np.cos(2.0 * np.pi * k / 16.0)) / 3.0)[::-1]
    assert np.max(np.abs(ring16.spectral.eigenvalues - expected)) < 1e-9


def test_spectral_complete_graph_gap_one():
    s = metropolis_weights(build_graph("complete", n=16)).spectral
    assert abs(s.lam) < 1e-12
    assert s.gap == pytest.approx(1.0)


def test_spectral_two_agents_half_matrix():
    s = spectral_info(np.full((2, 2), 0.5))
    assert s.lam == pytest.approx(0.0, abs=1e-12)


def test_spectral_reconstruction_and_lambda(ring16, grid16):
    for mix in (ring16, grid16):
        s = mix.spectral
        recon = s.eigvecs @ np.diag(s.eigenvalues) @ s.eigvecs.T
        assert np.linalg.norm(recon - mix.w) < 1e-9
        n = mix.n
        direct = np.linalg.norm(mix.w - np.ones((n, n)) / n, 2)
        assert abs(s.lam - direct) < 1e-9
        assert s.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(s.eigvecs[:, 0], 1.0 / np.sqrt(n))


def test_ring_gap_smaller_than_grid_gap(ring16, grid16):
    assert ring16.spectral.gap < grid16.spectral.gap


def test_spectral_rejects_asymmetry():
    w = np.full((3, 3), 1.0 / 3.0)
    w[0, 1] += 1e-6
    with pytest.raises(TopologyError, match="asymmetric"):
        spectral_info(w)


def test_mixing_matrix_rejects_bad_rows():
    with pytest.raises(TopologyError, match="sum to 1"):
        MixingMatrix(np.eye(3) * 0.9)


def test_lazify_affine_eigenvalue_map(ring16):
    tau = 0.3
    lazy = lazify(ring16, tau)
    expected = np.sort((1 - tau) * ring16.spectral.eigenvalues + tau)[::-1]
    assert np.max(np.abs(lazy.spectral.eigenvalues - expected)) < 1e-12


def test_lazify_complete_graph_half():
    mix = metropolis_weights(build_graph("complete", n=6))
    lazy = lazify(mix, 0.5)
    vals = np.sort(lazy.spectral.eigenvalues)
    assert vals[-1] == pytest.approx(1.0)
    assert np.allclose(vals[:-1], 0.5)


def test_lazify_ring16_makes_positive_definite(ring16):
    assert ring16.spectral.lambda_min == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert lazify(ring16, 0.5).spectral.lambda_min > 0.0


def test_lazify_preserves_double_stochasticity_exactly(ring16):
    lazy = lazify(ring16, 0.37)
    assert np.abs(lazy.w.sum(axis=1) - 1.0).max() < 1e-14
    assert np.abs(lazy.w.sum(axis=0) - 1.0).max() < 1e-14


def test_lazify_rejects_bad_tau(ring16):
    for tau in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(TopologyError):
            lazify(ring16, tau)


def test_psd_sqrt_squares_back(ring16):
    m = np.eye(16) - ring16.w
    root = psd_sqrt(m)
    assert np.linalg.norm(root @ root - m) < 1e-12
    with pytest.raises(TopologyError, match="negative eigenvalue"):
        psd_sqrt(ring16.w)  # ring W is indefinite


def test_metropolis_weights_property_random_connected_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def connected_graphs(draw):
        n = draw(st.integers(1, 40))
        # a random spanning tree keeps the graph connected; extras add cycles
        tree = [(k, draw(st.integers(0, k - 1))) for k in range(1, n)]
        node = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(node, node), max_size=2 * n))
        return build_graph("custom", n=n, edges=tree + extra)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(connected_graphs())
    def check(g):
        w = metropolis_weights(g).w
        assert np.array_equal(w, w.T)
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
        assert w.min() >= 0.0
        expected = np.zeros((g.n, g.n))
        for i, j in g.edges:
            expected[i, j] = expected[j, i] = 1.0 / (1.0 + max(g.degree(i), g.degree(j)))
        off = ~np.eye(g.n, dtype=bool)
        assert np.array_equal(w[off], expected[off])

    check()
