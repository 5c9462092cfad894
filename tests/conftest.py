import numpy as np
import pytest

from lslu import make_gravity_problem, make_tomo_problem


@pytest.fixture(scope="session")
def gravity64():
    return make_gravity_problem(64, noise_level=1e-2, seed=0)


@pytest.fixture(scope="session")
def gravity32():
    return make_gravity_problem(32, noise_level=1e-2, seed=0)


@pytest.fixture(scope="session")
def tomo16():
    return make_tomo_problem(16, noise_level=1e-2, seed=1)


@pytest.fixture(scope="session")
def tomo24():
    # the size of the benchmark's deep workload (816x576)
    return make_tomo_problem(24, noise_level=1e-2, seed=0)


@pytest.fixture(scope="session")
def tomo32():
    return make_tomo_problem(32, noise_level=1e-2, seed=0)


@pytest.fixture(scope="session")
def random_100x80():
    rng = np.random.default_rng(17)
    return rng.standard_normal((100, 80)), rng.standard_normal(100)
