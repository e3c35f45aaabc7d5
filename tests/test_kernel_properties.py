"""Property tests of the kernel quantiles.

The closed-form quantiles of the logistic kernel pair, over the parameter box
gamma in [0.05, 0.95], uniforms in [0, 1) (with 0 and 1 - 2^-53 always in
play) and states up to 700 (5000 for the BEV kernel, which reads the Gumbel
value of states beyond ~709, where the Frechet value overflows), must be
finite, nondecreasing in u and an inverse of ``cdf`` to 1e-12.  Draws at the
floor shared with the root-finding path only have to cover u.  Each drawn
uniform comes with its next float up, so monotonicity is tested between
adjacent floats too.

Under those quantiles, the root zeta of ``_logistic_zeta`` is the largest
float whose rounded ``_logistic_L`` does not exceed L, over gamma in
[0.01, 0.99], states up to 1e6 and uniforms up to 1 - 2^-53, with L and c
formed as each kernel's ``ppf`` forms them.

The roots of the ``cdf`` of the asymmetric logistic, the inverted
Husler-Reiss kernel and the inverted max-stable kernel of the logistic
spectral density (``_oracles.root_ppf``; these kernels draw by their own
constructions and have no quantile) meet the same bounds, except
monotonicity between adjacent floats, which root finding does not claim;
the density family, whose ``cdf`` integrates the density, over fewer
examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extreme_chains import kernels, margins

from _oracles import root_ppf

PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None)

GAMMAS = st.floats(0.05, 0.95)
U_TOP = 1.0 - 2.0 ** -53
UNIFORMS = st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=16)
STATES = st.floats(0.01, 700.0, exclude_min=True)
DEEP_STATES = st.floats(700.0, 5000.0, exclude_min=True)


def check_ppf(kernel, x, us, tol, monotone=True, ppf=None):
    u = np.array([0.0, U_TOP] + us)
    u = np.sort(np.concatenate([u, np.minimum(np.nextafter(u, 1.0), U_TOP)]))
    xs = np.full(u.shape, x)
    y = (ppf or kernel.ppf)(xs, u)
    assert np.all(np.isfinite(y))
    assert np.all(y >= kernels._FLOOR)
    if monotone:
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


@pytest.mark.parametrize("cls", [kernels.BevLogisticKernel,
                                 kernels.InvertedBevLogisticKernel])
@PROPERTY_SETTINGS
@given(gamma=st.floats(0.01, 0.99), x=st.floats(0.0, 1e6, exclude_min=True),
       us=UNIFORMS)
def test_logistic_zeta_is_the_largest_float_within_L(cls, gamma, x, us):
    m = cls(gamma)._m
    u = np.array([0.0, U_TOP] + us)
    if cls is kernels.BevLogisticKernel:
        # the BEV quantile is the floor at u = 0 and finds no root there
        u = u[u > 0.0]
        L, log_c = -np.log(u), -margins.transform(x, margins.EXPONENTIAL, margins.GUMBEL)
    else:
        L, log_c = -np.log1p(-u), np.log(x)
    z = kernels._logistic_zeta(L, log_c, m)
    assert np.all(kernels._logistic_L(z, log_c, m) <= L), (x, u)
    assert np.all(L < kernels._logistic_L(np.nextafter(z, np.inf), log_c, m)), (x, u)


UNIT_BOX = st.floats(0.05, 0.95)


@PROPERTY_SETTINGS
@given(phi1=UNIT_BOX, phi2=UNIT_BOX, nu=UNIT_BOX, x=STATES, us=UNIFORMS)
def test_asymmetric_logistic_ppf_inverts_cdf(phi1, phi2, nu, x, us):
    kernel = kernels.AsymmetricLogisticKernel(phi1, phi2, nu)
    check_ppf(kernel, x, us, lambda y: 1e-12, monotone=False,
              ppf=lambda x, u: root_ppf(kernel, x, u))


@PROPERTY_SETTINGS
@given(gamma=st.floats(0.2, 3.0), x=st.floats(0.01, 200.0, exclude_min=True),
       us=UNIFORMS)
def test_inverted_husler_reiss_ppf_inverts_cdf(gamma, x, us):
    kernel = kernels.InvertedMaxStableKernel(kernels.HuslerReiss(gamma))
    check_ppf(kernel, x, us, lambda y: 1e-12, monotone=False,
              ppf=lambda x, u: root_ppf(kernel, x, u))


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(gamma=st.floats(0.2, 0.5), x=st.floats(0.01, 200.0, exclude_min=True),
       us=UNIFORMS)
def test_logistic_density_family_ppf_inverts_cdf(gamma, x, us):
    kernel = kernels.InvertedMaxStableKernel(kernels.density_logistic(gamma))
    check_ppf(kernel, x, us, lambda y: 1e-12, monotone=False,
              ppf=lambda x, u: root_ppf(kernel, x, u))
