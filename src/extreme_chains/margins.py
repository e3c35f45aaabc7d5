"""Marginal distributions and monotone transformations between marginal scales.

Each law writes one exact pair of maps to and from the standard Laplace scale:
``to_laplace(x)`` is the Laplace value with the same tail probability, read in
the upper tail above the median and in the lower tail below it, and
``from_laplace`` is its inverse.  No probability is formed on the way, so both
tails keep full relative precision however deep a state sits (Gaussian 100 is
Laplace 5004.8).  The shared base derives ``cdf``/``sf``/``ppf``/``isf`` from
the Laplace closed forms, and :func:`transform` composes two maps.
"""

import math

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from .errors import DomainError

__all__ = [
    "StandardExponential",
    "StandardLaplace",
    "StandardFrechet",
    "StandardGaussian",
    "EXPONENTIAL",
    "LAPLACE",
    "FRECHET",
    "GAUSSIAN",
    "transform",
]

_LOG2 = math.log(2.0)
_TINY = np.finfo(float).smallest_subnormal


def _check_p(p):
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise DomainError("probability must lie strictly inside (0, 1)")
    return p


def _laplace_cdf(l):
    return np.where(l < 0.0, 0.5 * np.exp(np.minimum(l, 0.0)),
                    1.0 - 0.5 * np.exp(-np.maximum(l, 0.0)))


def _laplace_ppf(p):
    return np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))


class _Law:
    """A law given by ``to_laplace`` and ``from_laplace``, its exact maps to
    and from the standard Laplace scale."""

    def cdf(self, x):
        return _laplace_cdf(self.to_laplace(x))

    def sf(self, x):
        return _laplace_cdf(-self.to_laplace(x))

    def ppf(self, p):
        return self.from_laplace(_laplace_ppf(_check_p(p)))

    def isf(self, s):
        return self.from_laplace(-_laplace_ppf(_check_p(s)))


class StandardExponential(_Law):
    """Unit-mean exponential law on (0, inf)."""

    name = "exponential"
    support = (0.0, np.inf)

    def to_laplace(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            lower = _LOG2 + np.log(-np.expm1(-np.maximum(x, 0.0)))   # -inf at x <= 0
        return np.where(x > _LOG2, x - _LOG2, lower)

    def from_laplace(self, l):
        # floored at the least positive double: deep in the lower tail the
        # state underflows, and 0 itself lies outside the support
        l = np.asarray(l, dtype=float)
        lower = -np.log1p(-0.5 * np.exp(np.minimum(l, 0.0)))
        return np.maximum(np.where(l > 0.0, l + _LOG2, lower), _TINY)


class StandardLaplace(_Law):
    """Standard Laplace law: density exp(-|x|)/2."""

    name = "laplace"
    support = (-np.inf, np.inf)

    def to_laplace(self, x):
        return np.asarray(x, dtype=float)

    from_laplace = to_laplace


class StandardFrechet(_Law):
    """Unit Frechet law: cdf exp(-1/x) on (0, inf); beyond Laplace ~ 709 its
    upper tail overflows doubles."""

    name = "frechet"
    support = (0.0, np.inf)

    def to_laplace(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            r = 1.0 / np.where(x > 0.0, x, 0.0)                      # inf at x <= 0
            upper = -_LOG2 - np.log(-np.expm1(-r))
        return np.where(r > _LOG2, _LOG2 - r, upper)

    def from_laplace(self, l):
        l = np.asarray(l, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            upper = 1.0 / -np.log1p(-0.5 * np.exp(-np.maximum(l, 0.0)))
        return np.where(l > 0.0, upper, 1.0 / (_LOG2 - np.minimum(l, 0.0)))


class StandardGaussian(_Law):
    """Standard normal law."""

    name = "gaussian"
    support = (-np.inf, np.inf)

    def to_laplace(self, z):
        z = np.asarray(z, dtype=float)
        return np.copysign(-log_ndtr(-np.abs(z)) - _LOG2, z)

    def from_laplace(self, l):
        l = np.asarray(l, dtype=float)
        return np.copysign(-ndtri_exp(-np.abs(l) - _LOG2), l)


EXPONENTIAL = StandardExponential()
LAPLACE = StandardLaplace()
FRECHET = StandardFrechet()
GAUSSIAN = StandardGaussian()


def transform(x, src, dst):
    """Map ``x`` from the ``src`` scale to the ``dst`` scale, through the
    Laplace value with the same tail probability."""
    x = np.asarray(x, dtype=float)
    out = x if src is dst else dst.from_laplace(src.to_laplace(x))
    return out if out.ndim else float(out)
