import os

import numpy as np
import pytest

from bubblebem.boundary_calculus import spectral_data
from bubblebem.mesh import make_ellipsoid, make_icosphere
from bubblebem.scattering import PlaneWave, ScatteringProblem, frequency_sweep

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


@pytest.fixture(scope="session")
def bem_sweep(sphere3, spectral3):
    # criterion 8's sweep: a dilated sweep of the sub-3 sphere across
    # omega_M, which the peak-fit tests also fit
    problem = ScatteringProblem(sphere3, 0.05, 1.6,
                                PlaneWave(np.array([0, 0, 1.0])),
                                y0=np.zeros(3), validity_threshold=np.inf)
    grid = np.round(np.arange(1.50, 2.0001, 0.02), 10)
    return frequency_sweep(problem, grid, "dilated", spectral3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
