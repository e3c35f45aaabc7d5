"""Marginal distributions and monotone transformations between marginal scales.

All laws expose the four functions ``cdf``/``sf``/``ppf``/``isf``.  Transforms
route through the survival function whenever the probability is in the upper
half, which keeps full relative precision deep in either tail (needed when
states sit 30-40 units out on the exponential or Laplace scale).
"""

import math

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError

__all__ = [
    "StandardExponential",
    "StandardLaplace",
    "StandardFrechet",
    "StandardGaussian",
    "ArchStationaryLaw",
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


class ArchStationaryLaw:
    """Stationary law of the squared-volatility recursion, from a solved table.

    The law is symmetric, so it is carried by the survival function of |Y|,
    ``sf(s) = P(|Y| > s)``, tabulated with its density on ``knots``.  Log sf
    against s is a cubic Hermite spline with slope ``-density/sf``; ``isf`` and
    ``ppf`` use a second spline, s against log sf, on the same knots.  Beyond
    ``blend_x`` (the last knot) the tail is exactly Pareto: ``P(Y > x) =
    c * x**(-kappa)``.  ``P(Y > x) = sf(|x|) / 2``, so ``cdf(-x) == sf(x)``.
    """

    name = "arch_stationary"
    support = (-np.inf, np.inf)

    def __init__(self, theta0, theta1, kappa, knots, sf, density):
        # imported here: only the volatility chain needs scipy.interpolate
        from scipy.interpolate import CubicHermiteSpline

        self.theta0 = float(theta0)
        self.theta1 = float(theta1)
        self.kappa = float(kappa)
        knots = np.asarray(knots, dtype=float)
        sf = np.asarray(sf, dtype=float)
        density = np.asarray(density, dtype=float)
        if knots.ndim != 1 or knots.shape != sf.shape or knots.shape != density.shape:
            raise DomainError("table arrays must be one-dimensional and equal length")
        if knots[0] != 0.0 or np.any(np.diff(knots) <= 0.0):
            raise DomainError("knots must start at 0 and increase strictly")
        if np.any(np.diff(sf) >= 0.0) or not sf[-1] > 0.0 or np.any(density <= 0.0):
            raise DomainError("the tabulated law needs a decreasing positive sf "
                              "and a positive density")
        log_sf = np.log(sf)
        self.blend_x = float(knots[-1])
        self._log_sf_blend = float(log_sf[-1])
        # P(Y > x) = exp(log_sf_blend - log 2) (x / blend_x)^-kappa beyond blend_x
        self.c = float(np.exp(self._log_sf_blend - math.log(2.0)
                              + self.kappa * math.log(self.blend_x)))
        self._log_sf = CubicHermiteSpline(knots, log_sf, -density / sf)
        self._abs_isf = CubicHermiteSpline(-log_sf, knots, sf / density)

    def _abs_sf(self, s):
        # P(|Y| > s) for s >= 0
        s = np.asarray(s, dtype=float)
        inner = s <= self.blend_x
        pareto = self._log_sf_blend - self.kappa * np.log(
            np.maximum(s, self.blend_x) / self.blend_x)
        log_sf = np.where(inner, np.maximum(
            self._log_sf(np.minimum(s, self.blend_x)), self._log_sf_blend), pareto)
        return np.exp(log_sf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        half = 0.5 * self._abs_sf(np.abs(x))
        return np.where(x < 0.0, half, 1.0 - half)

    def sf(self, x):
        return self.cdf(-np.asarray(x, dtype=float))

    def _upper_isf(self, s):
        # |Y| quantile at P(Y > x) = s for s in (0, 1/2]
        m = -np.log(2.0 * s)
        inner = m <= -self._log_sf_blend
        pareto = self.blend_x * np.exp(
            (np.maximum(m, -self._log_sf_blend) + self._log_sf_blend) / self.kappa)
        return np.where(inner, np.minimum(
            self._abs_isf(np.minimum(m, -self._log_sf_blend)), self.blend_x), pareto)

    def ppf(self, p):
        p = np.clip(_check_p(p), _P_LO, _P_HI)
        q = self._upper_isf(np.minimum(p, 1.0 - p))
        return np.where(p < 0.5, -q, q)

    def isf(self, s):
        return -self.ppf(s)


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
