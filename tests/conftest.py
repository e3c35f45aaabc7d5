import numpy as np
import pytest

from extreme_chains import kernels, numerics


@pytest.fixture(scope="session")
def arch_law_07():
    """Solved stationary law for theta1 = 0.7, shared by the ARCH kernel tests."""
    return numerics.arch_stationary_fit(1.0, 0.7)


@pytest.fixture(scope="session")
def arch_kernel_07():
    return kernels.ArchLaplaceKernel(1.0, 0.7)


@pytest.fixture(scope="session")
def expar_kernel():
    return kernels.ExpARKernel(0.8)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)
