"""Shared fixtures: the small standard sets reused across test modules."""

import numpy as np
import pytest

from urlab.geometry import (
    make_cantor_set,
    make_lipschitz_graph,
    make_plane_set,
    sawtooth_profile,
)


@pytest.fixture(scope="session")
def line3d():
    """d=1 line in R^3, extent 1, spacing 0.01 (200 points)."""
    return make_plane_set(3, 1, 1.0, 0.01)


@pytest.fixture(scope="session")
def line3d_fine():
    return make_plane_set(3, 1, 1.0, 0.005)


@pytest.fixture(scope="session")
def plane4d():
    """d=2 plane in R^4, coarse enough to stay fast."""
    return make_plane_set(4, 2, 0.5, 0.01)


@pytest.fixture(scope="session")
def graph02():
    """lam=0.2 sawtooth graph over a line in R^3."""
    return make_lipschitz_graph(3, 1, sawtooth_profile(0.2, 0.5), 0.2, 1.0,
                                0.01)


@pytest.fixture(scope="session")
def cantor4():
    return make_cantor_set(4)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240814)
