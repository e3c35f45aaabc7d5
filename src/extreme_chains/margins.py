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
    "StandardGumbel",
    "StandardGaussian",
    "EXPONENTIAL",
    "LAPLACE",
    "GUMBEL",
    "GAUSSIAN",
    "transform",
    "nonzero_draws",
]

_LOG2 = math.log(2.0)
_TINY = np.finfo(float).smallest_subnormal
_GUMBEL_ASYMPTOTE = 30.0


def log1mexp(t):
    """log(1 - e^{-t}) for t >= 0 without cancellation at either end."""
    with np.errstate(divide="ignore"):
        return np.where(t < _LOG2, np.log(-np.expm1(-t)), np.log1p(-np.exp(-t)))


def nonzero_draws(draw, size):
    """``draw(size=size)`` with every exact 0.0 redrawn.  numpy's ``uniform``
    and ``exponential`` return 0.0 with probability about 2^-53 per value,
    where a quantile or a log is infinite; the stream stays as it was until
    a zero falls."""
    v = draw(size=size)
    while (zero := v == 0.0).any():
        v[zero] = draw(size=int(zero.sum()))
    return v


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


class StandardGumbel(_Law):
    """Standard Gumbel law, the log of a unit Frechet value: cdf exp(-e^{-g})
    on the whole line.  Beyond ``_GUMBEL_ASYMPTOTE`` units of the upper tail,
    where e^{-g} or e^{-l} would underflow, l = g - log 2 + e^{-g}/2 and
    g = l + log 2 - e^{-l}/4 to double precision."""

    name = "gumbel"
    support = (-np.inf, np.inf)

    def to_laplace(self, g):
        g = np.asarray(g, dtype=float)
        with np.errstate(over="ignore"):
            t = np.exp(-np.minimum(g, _GUMBEL_ASYMPTOTE))         # -log cdf; inf deep below
        body = np.where(t >= _LOG2, _LOG2 - t, -_LOG2 - np.log(-np.expm1(-t)))
        far = g - _LOG2 + 0.5 * np.exp(-np.maximum(g, _GUMBEL_ASYMPTOTE))
        return np.where(g < _GUMBEL_ASYMPTOTE, body, far)

    def from_laplace(self, l):
        l = np.asarray(l, dtype=float)
        upper = -np.log(-np.log1p(-0.5 * np.exp(-np.clip(l, 0.0, _GUMBEL_ASYMPTOTE))))
        body = np.where(l > 0.0, upper, -np.log(_LOG2 - np.minimum(l, 0.0)))
        far = l + _LOG2 - 0.25 * np.exp(-np.maximum(l, _GUMBEL_ASYMPTOTE))
        return np.where(l < _GUMBEL_ASYMPTOTE, body, far)


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
GUMBEL = StandardGumbel()
GAUSSIAN = StandardGaussian()


def transform(x, src, dst):
    """Map ``x`` from the ``src`` scale to the ``dst`` scale, through the
    Laplace value with the same tail probability."""
    x = np.asarray(x, dtype=float)
    out = x if src is dst else dst.from_laplace(src.to_laplace(x))
    return out if out.ndim else float(out)
