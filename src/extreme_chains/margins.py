"""Marginal distributions and monotone transformations between marginal scales.

All laws expose the four functions ``cdf``/``sf``/``ppf``/``isf``.  Transforms
route through the survival function whenever the probability is in the upper
half, which keeps full relative precision deep in either tail (needed when
states sit 30-40 units out on the exponential or Laplace scale).
"""

import numpy as np
from scipy.special import ndtr, ndtri

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

# Clamps for probability arguments on the way into a quantile; the lower one
# keeps -1/log(p) finite on the Frechet scale, the upper one avoids log(0).
_P_LO = 1e-300
_P_HI = 1.0 - 1e-16


def _check_p(p):
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise DomainError("probability must lie strictly inside (0, 1)")
    return p


class StandardExponential:
    """Unit-mean exponential law on (0, inf)."""

    name = "exponential"
    support = (0.0, np.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, -np.expm1(-np.maximum(x, 0.0)))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 1.0, np.exp(-np.maximum(x, 0.0)))

    def ppf(self, p):
        return -np.log1p(-np.clip(_check_p(p), _P_LO, _P_HI))

    def isf(self, s):
        return -np.log(np.clip(_check_p(s), _P_LO, _P_HI))


class StandardLaplace:
    """Standard Laplace law: density exp(-|x|)/2."""

    name = "laplace"
    support = (-np.inf, np.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.5 * np.exp(np.minimum(x, 0.0)),
                        1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))

    def sf(self, x):
        return self.cdf(-np.asarray(x, dtype=float))

    def ppf(self, p):
        p = np.clip(_check_p(p), _P_LO, _P_HI)
        return np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))

    def isf(self, s):
        return -self.ppf(s)


class StandardFrechet:
    """Unit Frechet law: cdf exp(-1/x) on (0, inf)."""

    name = "frechet"
    support = (0.0, np.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x <= 0.0, 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)))

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x <= 0.0, 1.0, -np.expm1(-1.0 / np.maximum(x, 1e-300)))

    def ppf(self, p):
        return -1.0 / np.log(np.clip(_check_p(p), _P_LO, _P_HI))

    def isf(self, s):
        return -1.0 / np.log1p(-np.clip(_check_p(s), _P_LO, _P_HI))


class StandardGaussian:
    """Standard normal law."""

    name = "gaussian"
    support = (-np.inf, np.inf)

    def cdf(self, x):
        return ndtr(np.asarray(x, dtype=float))

    def sf(self, x):
        return ndtr(-np.asarray(x, dtype=float))

    def ppf(self, p):
        return ndtri(np.clip(_check_p(p), _P_LO, _P_HI))

    def isf(self, s):
        return -ndtri(np.clip(_check_p(s), _P_LO, _P_HI))


EXPONENTIAL = StandardExponential()
LAPLACE = StandardLaplace()
FRECHET = StandardFrechet()
GAUSSIAN = StandardGaussian()


def transform(x, src, dst):
    """Map ``x`` from the ``src`` scale to the ``dst`` scale.

    Computes ``dst.ppf(src.cdf(x))`` but routes through the survival pair
    ``dst.isf(src.sf(x))`` when the point sits in the upper half, so both
    tails keep relative precision.  ``src.cdf`` is evaluated only at the
    lower-half points.
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(src.sf(x), dtype=float)
    upper = s < 0.5
    lower = ~upper
    out = np.empty_like(s)
    if np.any(upper):
        out[upper] = dst.isf(np.clip(s[upper], _P_LO, _P_HI))
    if np.any(lower):
        p = np.asarray(src.cdf(x[lower]), dtype=float)
        out[lower] = dst.ppf(np.clip(p, _P_LO, _P_HI))
    return out if out.ndim else float(out)
