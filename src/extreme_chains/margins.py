"""Marginal distributions and monotone transformations between marginal scales.

All laws expose the four functions ``cdf``/``sf``/``ppf``/``isf``.  Transforms
route through the survival function whenever the probability is in the upper
half, which keeps full relative precision deep in either tail (needed when
states sit 30-40 units out on the exponential or Laplace scale).
"""

import numpy as np
from scipy.stats import norm

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
        return norm.cdf(np.asarray(x, dtype=float))

    def sf(self, x):
        return norm.sf(np.asarray(x, dtype=float))

    def ppf(self, p):
        return norm.ppf(np.clip(_check_p(p), _P_LO, _P_HI))

    def isf(self, s):
        return norm.isf(np.clip(_check_p(s), _P_LO, _P_HI))


class ArchStationaryLaw:
    """Stationary law of the squared-volatility recursion, fitted on a grid.

    The interior is a symmetrised empirical CDF on ``grid_x``/``grid_cdf``;
    beyond ``blend_x`` the upper tail is the analytic Pareto form
    ``1 - F(x) = c * x**(-kappa)`` with ``c`` chosen by continuity at the
    blend point, and the lower tail is its mirror image.
    """

    name = "arch_stationary"
    support = (-np.inf, np.inf)

    def __init__(self, theta0, theta1, kappa, c, blend_x, grid_x, grid_cdf):
        self.theta0 = float(theta0)
        self.theta1 = float(theta1)
        self.kappa = float(kappa)
        self.c = float(c)
        self.blend_x = float(blend_x)
        self.grid_x = np.asarray(grid_x, dtype=float)
        self.grid_cdf = np.asarray(grid_cdf, dtype=float)
        if self.grid_x.ndim != 1 or self.grid_x.shape != self.grid_cdf.shape:
            raise DomainError("grid arrays must be one-dimensional and equal length")
        if np.any(np.diff(self.grid_x) <= 0.0):
            raise DomainError("grid abscissae must be strictly increasing")
        # strictly increasing cdf values for the quantile interpolation
        keep = np.concatenate([[True], np.diff(self.grid_cdf) > 0.0])
        self._qx = self.grid_x[keep]
        self._qF = self.grid_cdf[keep]
        self._F_blend = 1.0 - self.c * self.blend_x ** (-self.kappa)

    def _tail_sf(self, ax):
        return self.c * np.maximum(ax, self.blend_x) ** (-self.kappa)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        inner = np.interp(x, self.grid_x, self.grid_cdf)
        hi = x > self.blend_x
        lo = x < -self.blend_x
        out = np.where(hi, 1.0 - self._tail_sf(x), inner)
        out = np.where(lo, self._tail_sf(-x), out)
        return out

    def sf(self, x):
        # exact symmetry of the construction: 1 - F(x) = F(-x)
        return self.cdf(-np.asarray(x, dtype=float))

    def ppf(self, p):
        p = np.clip(_check_p(p), _P_LO, _P_HI)
        inner = np.interp(p, self._qF, self._qx)
        hi = p > self._F_blend
        lo = p < 1.0 - self._F_blend
        out = np.where(hi, (self.c / np.maximum(1.0 - p, 1e-300)) ** (1.0 / self.kappa), inner)
        out = np.where(lo, -((self.c / np.maximum(p, 1e-300)) ** (1.0 / self.kappa)), out)
        return out

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
    tails keep relative precision.
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(src.sf(x), dtype=float)
    upper = s < 0.5
    out = np.empty_like(s)
    if np.any(upper):
        out[upper] = dst.isf(np.clip(s[upper], _P_LO, _P_HI))
    if np.any(~upper):
        p = np.asarray(src.cdf(x), dtype=float)
        out[~upper] = dst.ppf(np.clip(p[~upper], _P_LO, _P_HI))
    return out if out.ndim else float(out)
