import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extreme_chains import margins, numerics
from extreme_chains.errors import DomainError

from _oracles import (exponential_from_gumbel_mp, gumbel_from_exponential_mp,
                      norm_quantile)

ANALYTIC = [margins.EXPONENTIAL, margins.LAPLACE, margins.GUMBEL,
            margins.GAUSSIAN]


def test_laplace_median():
    assert margins.LAPLACE.cdf(0.0) == 0.5


def test_exponential_median():
    assert margins.EXPONENTIAL.cdf(math.log(2.0)) == pytest.approx(0.5, abs=1e-15)


def test_exponential_quantile():
    assert margins.EXPONENTIAL.ppf(0.5) == pytest.approx(
        0.6931471805599453, abs=1e-12)


def test_gaussian_quantile_against_erf_oracle():
    # oracle: bisection of math.erf, frozen to 1.9599639845400536
    oracle = norm_quantile(0.975)
    assert oracle == pytest.approx(1.9599639845400536, abs=1e-12)
    assert margins.GAUSSIAN.ppf(0.975) == pytest.approx(oracle, abs=1e-9)


def test_laplace_lower_quantile():
    assert margins.LAPLACE.ppf(0.25) == pytest.approx(
        math.log(0.5), abs=1e-12)


def test_quantile_domain_errors():
    for law in ANALYTIC:
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                law.ppf(p)


def test_cdf_saturates_without_error():
    assert margins.EXPONENTIAL.cdf(-5.0) == 0.0
    assert margins.GUMBEL.cdf(-1e3) == 0.0
    assert margins.EXPONENTIAL.cdf(1e6) == 1.0


def test_transform_median_to_median():
    assert margins.transform(0.0, margins.LAPLACE, margins.EXPONENTIAL) == \
        pytest.approx(math.log(2.0), abs=1e-12)


def test_transform_identity():
    xs = np.linspace(0.05, 20.0, 50)
    out = margins.transform(xs, margins.EXPONENTIAL, margins.EXPONENTIAL)
    np.testing.assert_allclose(out, xs, atol=1e-12)


def test_transform_gaussian_to_exponential():
    # compose the closed forms: -log(sf(1.9599...)) = -log(0.025)
    val = margins.transform(1.9599639845400536, margins.GAUSSIAN,
                            margins.EXPONENTIAL)
    assert val == pytest.approx(3.6888794541139363, abs=1e-9)


def test_round_trip_all_pairs():
    # tolerance 1e-9, relative beyond unit scale (criterion 1's measure): the
    # upper tails of the grid reach |x| ~ 14
    ps = np.concatenate([np.geomspace(1e-6, 0.5, 40),
                         1.0 - np.geomspace(1e-6, 0.5, 40)])
    for src in ANALYTIC:
        xs = src.ppf(ps)
        for dst in ANALYTIC:
            back = margins.transform(margins.transform(xs, src, dst), dst, src)
            err = np.abs(back - xs) / np.maximum(1.0, np.abs(xs))
            assert err.max() < 1e-9, (src.name, dst.name, err.max())


def test_transform_monotone():
    ps = np.linspace(1e-6, 1.0 - 1e-6, 200)
    for src in ANALYTIC:
        xs = src.ppf(ps)
        for dst in ANALYTIC:
            ys = margins.transform(xs, src, dst)
            assert np.all(np.diff(ys) > 0.0), (src.name, dst.name)


def test_quantile_cdf_inverse_on_interior():
    ps = np.linspace(1e-6, 1.0 - 1e-6, 101)
    for law in ANALYTIC:
        xs = law.ppf(ps)
        back = law.ppf(law.cdf(xs))
        err = np.abs(back - xs) / np.maximum(1.0, np.abs(xs))
        assert err.max() < 1e-10, law.name


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(theta0=st.floats(0.1, 5.0), theta1=st.floats(0.05, 0.99))
def test_arch_law_over_parameter_box(theta0, theta1):
    # the volatility chain's law maps Laplace states through Lambda(s) =
    # -log P(|Y| > s) and its inverse, P(|Y| > s) = exp(-Lambda(s))
    start = time.perf_counter()
    law = numerics.arch_stationary_fit(theta0, theta1)
    assert time.perf_counter() - start < 1.0
    s = np.concatenate([[0.0], math.sqrt(theta0) * np.geomspace(1e-6, 1e9, 400)])
    lam = law.cumhaz(s)
    assert lam[0] == 0.0 and np.all(np.diff(lam) > 0.0) and np.all(np.isfinite(lam))
    ms = np.concatenate([[0.0], np.geomspace(1e-300, 700.0, 300), np.linspace(0.0, 700.0, 100)])
    ms = np.sort(np.concatenate([ms, np.nextafter(ms, np.inf)]))
    assert np.all(np.diff(law.inverse_cumhaz(ms)) >= 0.0)
    upper = ms[ms <= -math.log(2e-300)]                 # P(|Y| > s) >= 2e-300
    np.testing.assert_allclose(np.exp(-law.cumhaz(law.inverse_cumhaz(upper))),
                               np.exp(-upper), rtol=1e-9, atol=0.0)
    assert np.all(np.isfinite(law.inverse_cumhaz(np.array([700.0, 1000.0]))))


@pytest.mark.parametrize("law, lo", [(margins.GAUSSIAN, -5000.0),
                                     (margins.EXPONENTIAL, -700.0),
                                     (margins.GUMBEL, -5000.0)],
                         ids=["gaussian", "exponential", "gumbel"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_transform_exact_deep_in_both_tails(law, lo, data):
    # Laplace values whose tail probability is far below the least double:
    # the maps to and from ``law`` stay finite, strictly increasing and
    # invertible, where a probability clamp would merge them
    ls = np.unique(data.draw(st.lists(st.floats(lo, 5000.0), min_size=2, max_size=30)))
    ls = ls[np.concatenate([[True], np.diff(ls) > 1e-6 * np.maximum(1.0, np.abs(ls[1:]))])]
    chains = [(margins.LAPLACE, law)]
    if law is margins.EXPONENTIAL:
        chains.append((margins.EXPONENTIAL, margins.GAUSSIAN))
    xs = ls
    for src, dst in chains:
        ys = margins.transform(xs, src, dst)
        assert np.all(np.isfinite(ys)) and np.all(np.diff(ys) > 0.0), (src.name, dst.name)
        back = margins.transform(ys, dst, src)
        scale = np.abs(xs) if src is margins.EXPONENTIAL else np.maximum(1.0, np.abs(xs))
        assert np.all(np.abs(back - xs) <= 1e-9 * scale), (src.name, dst.name)
        xs = ys


def test_gumbel_matches_mpmath_from_exponential():
    # exponential x in [1e-12, 1e6] is Gumbel g in [-3.3, 1e6]: the forward
    # map against its 80-digit value, and the inverse at the rounded g
    xs = np.concatenate([np.geomspace(1e-12, 1e6, 601), np.linspace(25.0, 35.0, 101)])
    ref = np.array([gumbel_from_exponential_mp(x) for x in xs])
    g = margins.transform(xs, margins.EXPONENTIAL, margins.GUMBEL)
    assert np.all(np.abs(g - ref) <= 4.4e-16 * np.maximum(np.abs(ref), 1.0))
    back_ref = np.array([exponential_from_gumbel_mp(gi) for gi in g])
    back = margins.transform(g, margins.GUMBEL, margins.EXPONENTIAL)
    np.testing.assert_allclose(back, back_ref, rtol=1e-14, atol=0.0)
