import numpy as np
import pytest

from netshuffle.objective import make_quadratic
from netshuffle.topology import build_graph, lazify, metropolis_weights


@pytest.fixture(scope="session")
def ring8():
    return metropolis_weights(build_graph("ring", n=8))


@pytest.fixture(scope="session")
def ring16():
    return metropolis_weights(build_graph("ring", n=16))


@pytest.fixture(scope="session")
def grid16():
    return metropolis_weights(build_graph("grid:4x4"))


@pytest.fixture(scope="session")
def lazy_ring8(ring8):
    return lazify(ring8, 0.5)


@pytest.fixture(scope="session")
def quad8():
    return make_quadratic(8, 5, 4, seed=11, condition=2.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
