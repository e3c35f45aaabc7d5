"""Property tests of the closed-form quantiles of the logistic kernel pair.

Over the parameter box gamma in [0.05, 0.95], uniforms in [0, 1) (with 0 and
1 - 2^-53 always in play) and states up to 700 (5000 for the BEV kernel,
whose Frechet map overflows beyond ~709), ``ppf`` must be finite,
nondecreasing in u and an inverse of ``cdf`` to 1e-12.  Draws at the floor
shared with bisection only have to cover u.  Each drawn uniform comes with
its next float up, so monotonicity is tested between adjacent floats too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extreme_chains import kernels

PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None)

GAMMAS = st.floats(0.05, 0.95)
U_TOP = 1.0 - 2.0 ** -53
UNIFORMS = st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=16)
STATES = st.floats(0.01, 700.0, exclude_min=True)
DEEP_STATES = st.floats(700.0, 5000.0, exclude_min=True)


def check_ppf(kernel, x, us, tol):
    u = np.array([0.0, U_TOP] + us)
    u = np.sort(np.concatenate([u, np.minimum(np.nextafter(u, 1.0), U_TOP)]))
    xs = np.full(u.shape, x)
    y = kernel.ppf(xs, u)
    assert np.all(np.isfinite(y))
    assert np.all(np.diff(y) >= 0.0)
    F = kernel.cdf(xs, y)
    floor = y == kernels._FLOOR
    err = np.abs(F - u)
    assert np.all(err[~floor] <= np.broadcast_to(tol(y), y.shape)[~floor]), \
        (x, u[~floor], err[~floor])
    assert np.all(F[floor] >= u[floor] - 1e-12)


@pytest.mark.parametrize("cls", [kernels.BevLogisticKernel,
                                 kernels.InvertedBevLogisticKernel])
@PROPERTY_SETTINGS
@given(gamma=GAMMAS, x=STATES, us=UNIFORMS)
def test_ppf_is_finite_monotone_and_inverts_cdf(cls, gamma, x, us):
    check_ppf(cls(gamma), x, us, lambda y: 1e-12)


@PROPERTY_SETTINGS
@given(gamma=GAMMAS, x=DEEP_STATES, us=UNIFORMS)
def test_bev_ppf_deep_states(gamma, x, us):
    # A draw near x is stored to spacing(x); the conditional density is
    # below 1/gamma, so the identity holds to that rounding on top of 1e-12.
    check_ppf(kernels.BevLogisticKernel(gamma), x, us,
              lambda y: 1e-12 + np.spacing(y) / gamma)
