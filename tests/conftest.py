import os

import numpy as np
import pytest

from bubblebem.boundary_calculus import spectral_data
from bubblebem.mesh import make_ellipsoid, make_icosphere

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def sphere2():
    return make_icosphere(1.0, 2)


@pytest.fixture(scope="session")
def sphere3():
    return make_icosphere(1.0, 3)


@pytest.fixture(scope="session")
def ellipsoid2():
    return make_ellipsoid((1.0, 1.3, 1.7), 2)


@pytest.fixture(scope="session")
def spectral2(sphere2):
    return spectral_data(sphere2)


@pytest.fixture(scope="session")
def spectral3(sphere3):
    return spectral_data(sphere3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
