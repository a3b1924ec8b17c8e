import numpy as np
import pytest
from hypothesis import settings

from clotkit.matrices import DeVoreParams, devore_matrix, fixture_matrix

# every run draws the same examples, so whether the suite catches a fault does not depend on the run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def devore_5_2():
    return devore_matrix(DeVoreParams(5, 2), normalize=True)


@pytest.fixture(scope="session")
def gaussian_30_36():
    return fixture_matrix("gaussian", 30, 36, seed=1)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
