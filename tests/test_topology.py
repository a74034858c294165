import dense_mixing
import numpy as np
import pytest
from graph_helpers import adjacency, degree
from numpy.fft import rfft

from netshuffle import topology

from netshuffle.topology import (MixingMatrix, NeighborGather, TopologyError,
                                 build_graph, lazify, metropolis_weights,
                                 psd_sqrt, spectral_info)


def test_ring16_every_node_has_two_neighbors():
    g = build_graph("ring", n=16)
    assert g.n == 16
    assert all(degree(g, i) == 2 for i in range(16))


def test_complete_one_node_has_no_edges():
    g = build_graph("complete", n=1)
    assert g.n == 1 and not g.edges


def test_grid_4x4_corner_and_interior_degrees():
    g = build_graph("grid:4x4")
    degs = sorted(degree(g, i) for i in range(16))
    corners = [0, 3, 12, 15]
    interior = [5, 6, 9, 10]
    assert all(degree(g, i) == 2 for i in corners)
    assert all(degree(g, i) == 4 for i in interior)
    assert degs.count(3) == 8


def test_disconnected_custom_graph_rejected():
    with pytest.raises(TopologyError, match="not connected"):
        build_graph("custom", n=4, edges=[(0, 1), (2, 3)])


def test_grid_dimension_mismatch_rejected():
    with pytest.raises(TopologyError):
        build_graph("grid:4x4", n=10)


@pytest.mark.parametrize("spec,n,message", [
    ("grid", None, "grid needs RxC"), ("grid:0x4", None, "rows, cols >= 1"),
    ("star:3", 3, "star takes no argument"), ("ring", None, "needs n"),
    ("custom", 3, "needs an edge list"), ("moebius", 4, "unknown graph kind"),
])
def test_bad_graph_spec_rejected(spec, n, message):
    with pytest.raises(TopologyError, match=message):
        build_graph(spec, n=n)


@pytest.mark.parametrize("kind,n", [("ring", 16), ("grid", 16), ("star", 7),
                                    ("complete", 5)])
def test_metropolis_invariants(kind, n):
    if kind == "grid":
        g = build_graph("grid:4x4")
    else:
        g = build_graph(kind, n=n)
    w = metropolis_weights(g).w
    assert np.max(np.abs(w - w.T)) == 0.0
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
    assert w.min() >= 0.0
    adj = adjacency(g)
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


def test_spectral_two_agents_half_matrix():
    s = spectral_info(MixingMatrix(np.full((2, 2), 0.5)))
    assert s.lam == pytest.approx(0.0, abs=1e-12)


def test_spectral_reconstruction_and_lambda(ring16, grid16):
    # the reconstruction and lambda itself are checked by `verify --suite
    # spectral`; this pins the consensus pair it relies on
    for mix in (ring16, grid16):
        s = mix.spectral
        assert s.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(s.eigvecs[:, 0], 1.0 / np.sqrt(mix.n))


def test_spectral_rejects_asymmetry():
    w = np.full((3, 3), 1.0 / 3.0)
    w[0, 1] += 1e-6
    with pytest.raises(TopologyError, match="asymmetric"):
        spectral_info(MixingMatrix(w))


def test_mixing_matrix_rejects_a_non_square_input():
    with pytest.raises(TopologyError, match="must be square"):
        MixingMatrix(np.full((2, 3), 0.5))


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
            expected[i, j] = expected[j, i] = 1.0 / (1.0 + max(degree(g, i), degree(g, j)))
        off = ~np.eye(g.n, dtype=bool)
        assert np.array_equal(w[off], expected[off])

    check()


def _group_energies(vals: np.ndarray, proj: np.ndarray, gap: float) -> np.ndarray:
    """Energy of `proj`'s rows summed over runs of sorted `vals` whose
    neighbours lie within `gap`: invariant to the basis chosen inside such
    a run, since the run spans an invariant subspace of W."""
    starts = np.concatenate(([True], np.diff(vals) < -gap))
    return np.add.reduceat(np.sum(proj * proj, axis=1), np.flatnonzero(starts))


def test_circulant_spectrum_property(monkeypatch):
    """Closed-form circulant spectra against a dense eigh, over random
    symmetric doubly stochastic circulants, complete graphs and lazified
    rings."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # project by rfft at every size, where the dense rule would take these
    monkeypatch.setattr(topology, "DENSE_PROJECT_WORK", -1)

    @st.composite
    def circulants(draw):
        kind = draw(st.sampled_from(("random", "complete", "lazy-ring")))
        n = draw(st.integers(1, 64))
        if kind == "complete":
            return metropolis_weights(build_graph("complete", n=n)).w
        if kind == "lazy-ring":
            tau = draw(st.floats(0.05, 0.95))
            return lazify(metropolis_weights(build_graph("ring", n=n)), tau).w
        half = n // 2
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=half, max_size=half))
        row = np.zeros(n)
        if half:
            # offset 1 carries weight, so the circulant graph is connected
            raw = np.array(raw) + np.eye(half)[0]
            weights = draw(st.floats(0.05, 0.95)) * raw / (2.0 * raw.sum())
            row[1:half + 1] = weights
            row[n - half:] = weights[::-1]
        row[0] = 1.0 - row[1:].sum()
        idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        return row[idx]

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(circulants(), st.integers(0, 2 ** 32 - 1))
    def check(w, seed):
        n = len(w)
        s = spectral_info(MixingMatrix(w))
        assert s.modes is not None
        vals, vecs = np.linalg.eigh(w)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        assert np.max(np.abs(s.eigenvalues - vals)) <= 1e-13
        U = s.eigvecs
        assert np.all(U[:, 0] == 1.0 / np.sqrt(n))
        assert np.max(np.abs(U.T @ U - np.eye(n))) <= 1e-13
        assert np.max(np.abs(w @ U - U * s.eigenvalues)) <= 1e-13
        M = np.random.default_rng(seed).normal(size=(n, 3))
        proj = s.project(M)
        assert proj.shape == (n - 1, 3)
        assert np.max(np.abs(proj - s.uhat.T @ M), initial=0.0) <= 1e-13
        # dense reference: eigh's basis with the consensus vector removed
        dense = vecs.T @ M
        dense[0] = 0.0
        ours = np.vstack([np.zeros((1, 3)), proj])
        total = float(np.sum(M * M))
        # runs of eigenvalues closer than 1e-4 are compared as one group:
        # eigh's basis inside a near-tie is rotated by up to eps/gap
        diff = (_group_energies(s.eigenvalues, ours, 1e-4)
                - _group_energies(s.eigenvalues, dense, 1e-4))
        assert np.max(np.abs(diff)) <= 1e-12 * total

    check()


def test_circulant_projection_is_dense_up_to_the_work_rule(monkeypatch):
    calls = []
    monkeypatch.setattr(topology, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
    limit = topology.DENSE_PROJECT_WORK
    for n, cols in ((8, 20), (16, 2), (64, 64), (128, 16), (128, 17), (512, 32)):
        s = lazify(metropolis_weights(build_graph("ring", n=n)), 0.5).spectral
        M = np.random.default_rng(n).normal(size=(n, cols))
        calls.clear()
        proj = s.project(M)
        dense = s.uhat.T @ M
        assert calls == ([] if n * n * cols <= limit else [1])
        if calls:
            assert np.max(np.abs(proj - dense)) <= 1e-13 * np.max(np.abs(dense))
        else:
            assert np.array_equal(proj, dense)


def test_non_circulant_graphs_take_eigh(ring16):
    w = ring16.w.copy()
    # one symmetric pair moved, rows still stochastic: no longer circulant
    w[0, 1] = w[1, 0] = w[0, 1] + 1e-3
    w[0, 0] -= 1e-3
    w[1, 1] -= 1e-3
    mixes = (metropolis_weights(build_graph("grid:4x4")),
             metropolis_weights(build_graph("star", n=7)), MixingMatrix(w))
    for mix in mixes:
        s = mix.spectral
        assert s.modes is None
        M = np.arange(3.0 * mix.n).reshape(mix.n, 3)
        assert np.array_equal(s.project(M), s.uhat.T @ M)
    for mix in (ring16, lazify(ring16, 0.5),
                metropolis_weights(build_graph("complete", n=6)),
                metropolis_weights(build_graph("ring", n=2))):
        assert mix.spectral.modes is not None


# ---------------------------------------------------------------------------
# W kept as its nonzeros, against the dense construction
# ---------------------------------------------------------------------------


ENTRY_GRAPHS = {
    "ring1": build_graph("ring", n=1),
    "ring2": build_graph("ring", n=2),
    "ring3": build_graph("ring", n=3),
    "ring16": build_graph("ring", n=16),
    "ring300": build_graph("ring", n=300),
    "grid3x5": build_graph("grid:3x5"),
    "star7": build_graph("star", n=7),
    "complete1": build_graph("complete", n=1),
    "complete2": build_graph("complete", n=2),
    "complete43": build_graph("complete", n=43),
    "custom": build_graph("custom", n=9, edges=[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4),
                                                (4, 5), (5, 6), (6, 7), (7, 8), (8, 2)]),
}


def assert_same_mixing(mix: MixingMatrix, w: np.ndarray):
    """`mix` is bit for bit the dense `w`: its dense form, its neighbour
    gather and its spectrum."""
    assert mix.w.tobytes() == w.tobytes()
    gather = NeighborGather(mix)
    idx, wt = dense_mixing.gather(w)
    assert np.array_equal(gather.idx, idx) and gather.wt.tobytes() == wt.tobytes()
    vals, modes = dense_mixing.spectrum(w)
    assert mix.spectral.eigenvalues.tobytes() == vals.tobytes()
    if modes is None:
        assert mix.spectral.modes is None
    else:
        assert np.array_equal(mix.spectral.modes, modes)


@pytest.mark.parametrize("tau", [None, 0.5, 0.3])
@pytest.mark.parametrize("name", sorted(ENTRY_GRAPHS))
def test_entry_construction_matches_dense(name, tau):
    g = ENTRY_GRAPHS[name]
    mix, w = metropolis_weights(g), dense_mixing.metropolis(g)
    if tau is not None:
        mix, w = lazify(mix, tau), dense_mixing.lazify(w, tau)
    assert mix.n == g.n
    rows, cols = np.nonzero(w)
    assert np.array_equal(mix.rows, rows) and np.array_equal(mix.cols, cols)
    assert mix.vals.tobytes() == w[rows, cols].tobytes()
    assert_same_mixing(mix, w)
    # a dense input goes through the same conversion
    assert_same_mixing(MixingMatrix(w), w)


def test_lazify_inserts_a_missing_diagonal():
    w = np.full((3, 3), 0.5) - 0.5 * np.eye(3)
    mix = MixingMatrix(w)
    assert not np.any(mix.rows == mix.cols)
    lazy = lazify(mix, 0.4)
    assert_same_mixing(lazy, dense_mixing.lazify(w, 0.4))
    assert np.array_equal(np.diag(lazy.w), np.full(3, 0.4))


def test_circulant_spectrum_leaves_w_unbuilt():
    mix = lazify(metropolis_weights(build_graph("ring", n=512)), 0.5)
    assert mix.spectral.modes is not None
    assert isinstance(mix.operator, NeighborGather)
    assert "w" not in vars(mix)
    grid = metropolis_weights(build_graph("grid:4x4"))
    assert grid.spectral.modes is None and "w" in vars(grid)


def test_dense_w_is_read_only_and_built_once(ring16):
    assert ring16.w is ring16.w
    with pytest.raises(ValueError):
        ring16.w[0, 0] = 0.0


def _asymmetric():
    w = np.full((3, 3), 1.0 / 3.0)
    w[0, 1] += 1e-6
    w[0, 0] -= 1e-6
    return w


def _one_sided():
    # an entry with no mirror entry at all: W[0, 2] > 0 but W[2, 0] == 0
    w = np.array([[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [0.0, 0.25, 0.75]])
    w[0, 2], w[0, 0] = 1e-9, 0.5 - 1e-9
    return w


def _negative():
    return np.array([[1.2, -0.2], [-0.2, 1.2]])


def _disconnected():
    return np.kron(np.eye(2), np.full((2, 2), 0.5))


@pytest.mark.parametrize("make", [_asymmetric, _one_sided, lambda: np.eye(3) * 0.9,
                                  _negative, _disconnected],
                         ids=["asymmetric", "one-sided", "rows", "negative", "disconnected"])
def test_entry_checks_raise_the_dense_messages(make):
    w = make()
    with pytest.raises(TopologyError) as dense:
        dense_mixing.check(w)
    with pytest.raises(TopologyError) as entries:
        MixingMatrix(w)
    assert str(entries.value) == str(dense.value)


@pytest.mark.parametrize("graph", [build_graph("ring", n=8), build_graph("grid:3x4")],
                         ids=["ring", "grid"])
def test_from_entries_equals_the_dense_constructor(graph):
    w = dense_mixing.metropolis(graph)
    rows, cols = np.nonzero(w)
    mix, dense = MixingMatrix.from_entries(graph.n, rows, cols, w[rows, cols]), MixingMatrix(w)
    for name in ("rows", "cols", "vals", "w"):
        assert np.array_equal(getattr(mix, name), getattr(dense, name)), name
    assert np.array_equal(mix.spectral.eigenvalues, dense.spectral.eigenvalues)


def test_a_disconnected_w_fails_with_its_message_from_entries_and_lazify():
    w = _disconnected()
    rows, cols = np.nonzero(w)
    with pytest.raises(TopologyError, match="^positivity pattern of W is not connected$"):
        MixingMatrix.from_entries(4, rows, cols, w[rows, cols])
    # the one off-diagonal weight underflows to 0 when lazified, which cuts W
    tiny = np.array([[1.0, 5e-324], [5e-324, 1.0]])
    with pytest.raises(TopologyError, match="^positivity pattern of W is not connected$"):
        lazify(MixingMatrix(tiny), 0.75)


@pytest.mark.parametrize("graph,tau", [("ring", 0.0), ("ring", 0.5), ("grid:3x4", 0.5),
                                       ("star", 0.25)])
def test_build_mix_searches_for_connectivity_once(monkeypatch, graph, tau):
    # Metropolis weights and lazify keep the graph's connected pattern
    from netshuffle import harness, topology
    calls = []
    search = topology._connected
    monkeypatch.setattr(topology, "_connected",
                        lambda *args: calls.append(1) or search(*args))
    mix = harness.build_mix(harness.ExperimentConfig(n=12, graph=graph, tau=tau))
    assert len(calls) == 1
    dense_mixing.check(mix.w)


def test_non_finite_weights_rejected():
    w = np.full((2, 2), 0.5)
    w[0, 0] = np.nan
    with pytest.raises(TopologyError, match="finite"):
        MixingMatrix(w)
