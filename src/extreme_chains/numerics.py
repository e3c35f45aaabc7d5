"""The bespoke solves the example chains need: the stationary law of the
centred exponential autoregression, and the tail index and stationary law of
the squared-volatility (ARCH(1)) recursion.  The ARCH law is solved, not
simulated: its stationarity equation, integrated by parts, is a linear
Fredholm equation that one Nystrom linear solve discretises.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtr

from . import margins
from .errors import ConvergenceError, ValidationError

__all__ = [
    "GridFunction",
    "arch_tail_index",
    "arch_stationary_fit",
    "solve_Fv_fixed_point",
    "FvSolution",
    "fv_residual",
]


@dataclass
class GridFunction:
    """Function carried on a strictly increasing grid, linear in between."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.ndim != 1 or self.xs.shape != self.ys.shape:
            raise ValidationError("GridFunction needs matching 1-d arrays")
        if np.any(np.diff(self.xs) <= 0.0):
            raise ValidationError("GridFunction abscissae must be strictly increasing")

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.ys)


def arch_tail_index(theta1):
    """Tail index kappa of the stationary volatility recursion.

    Solves ``E[(theta1 * W^2)^u] = 1`` for the positive root, i.e.
    ``(2 theta1)^u Gamma(u + 1/2) / sqrt(pi) = 1``, and returns ``kappa = 2u``.
    ``theta1 = 1`` gives exactly 2 since ``E[W^2] = 1``.
    """
    if not 0.0 < theta1 <= 1.0:
        raise ValidationError("theta1 must lie in (0, 1]")
    if theta1 == 1.0:
        return 2.0
    # imported on first use: only the volatility chain solves for kappa
    from scipy.optimize import brentq

    def g(u):
        return u * math.log(2.0 * theta1) + gammaln(u + 0.5) - 0.5 * math.log(math.pi)

    # g(0) = 0 and g is first decreasing, so bracket the positive root from a
    # point where g < 0 out to a sign change.
    lo = 1e-6
    if g(lo) >= 0.0:
        lo = 0.05
    hi = 1.0
    while g(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ConvergenceError("no positive root found for the moment equation")
    # brentq's default xtol (2e-12) can leave kappa ~1000 ulp off the root
    u = brentq(g, lo, hi, xtol=1e-15)
    return 2.0 * u


# Nystrom discretisation of the ARCH stationarity equation, in units of
# sqrt(theta0): Gauss-Legendre panels, linear in r on [0, _ARCH_SPLIT], in log r
# on [_ARCH_SPLIT, _ARCH_R] and, for the Pareto continuation, in log r over
# _ARCH_TAIL_SPAN e-folds beyond _ARCH_R.
_ARCH_SPLIT = 8.0
_ARCH_R = 1e5
_ARCH_TAIL_SPAN = 24.0
_ARCH_PANELS = (8, 24, 24)
_ARCH_GAUSS = 16
# Knots of the tabulated law (linear / log-spaced, as the panels) and the
# largest relative table error it may carry at their midpoints.
_ARCH_KNOTS = (512, 2048)
_ARCH_TABLE_TOL = 1e-8
# Kernel evaluations go in row blocks of at most this many elements (2 MB).
_BLOCK_ELEMS = 1 << 18
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _gauss_panels(edges, order):
    """Gauss-Legendre nodes and weights on the panels between ``edges``."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _arch_kernel(s, r, theta1):
    """K(s, r) = d/dr 2 Phibar(s / sigma(r)), sigma(r)^2 = 1 + theta1 r^2, and
    its s-derivative, on the grid s x r.

    The two returned blocks are the only block-sized arrays it allocates; the
    operations, and so the bits, are those of ``phi = exp(-0.5 v v) c(r)``,
    ``phi s`` and ``phi (1 - v v)`` with ``v = s / sigma(r)``.
    """
    sig2 = 1.0 + theta1 * r * r
    sig = np.sqrt(sig2)
    coef = (2.0 * theta1 / _SQRT_2PI) * r / (sig2 * sig)
    v = s[:, None] / sig
    phi = np.multiply(v, -0.5)
    np.multiply(phi, v, out=phi)
    np.exp(phi, out=phi)
    np.multiply(phi, coef, out=phi)
    np.multiply(v, v, out=v)
    np.subtract(1.0, v, out=v)
    np.multiply(phi, v, out=v)          # phi (1 - v v)
    np.multiply(phi, s[:, None], out=phi)
    return phi, v


class _ArchNystrom:
    """Nystrom solution of the stationarity equation of |Y| at theta0 = 1.

    Integrating P(|Y'| > s) = E[2 Phibar(s / sigma(|Y|))] by parts gives
    sf(s) = 2 Phibar(s) + int_0^inf K(s, r) sf(r) dr, a Fredholm equation of
    the second kind.  Beyond R the integrand uses the Pareto tail
    sf(r) = sf(R) (r / R)^-kappa, with sf(R) one extra unknown.
    """

    def __init__(self, theta1, kappa):
        lin, log, tail = _ARCH_PANELS
        log_r = math.log(_ARCH_R)
        r0, w0 = _gauss_panels(np.linspace(0.0, _ARCH_SPLIT, lin + 1), _ARCH_GAUSS)
        t, wt = _gauss_panels(np.concatenate([
            np.linspace(math.log(_ARCH_SPLIT), log_r, log + 1),
            np.linspace(log_r, log_r + _ARCH_TAIL_SPAN, tail + 1)[1:]]), _ARCH_GAUSS)
        self.theta1 = theta1
        self.r = np.concatenate([r0, np.exp(t)])
        self._step = max(1, _BLOCK_ELEMS // self.r.size)
        n = r0.size + log * _ARCH_GAUSS   # the nodes below R carry unknowns
        w = np.concatenate([w0, wt * self.r[r0.size:]])
        w[n:] *= (self.r[n:] / _ARCH_R) ** -kappa
        # the equation at each node below R and at R itself, in row blocks
        rows = np.append(self.r[:n], _ARCH_R)
        a = np.empty((n + 1, n + 1))
        for i in range(0, n + 1, self._step):
            kw = _arch_kernel(rows[i:i + self._step], self.r, theta1)[0]
            kw *= w
            np.negative(kw[:, :n], out=a[i:i + self._step, :n])
            a[i:i + self._step, n] = -kw[:, n:].sum(axis=1)
        a[np.diag_indices(n + 1)] += 1.0
        sol = np.linalg.solve(a, 2.0 * ndtr(-rows))
        self.sf_R = float(sol[n])
        # quadrature weight times sf at every node, beyond R from the tail
        self._wsf = w * np.concatenate([sol[:n], np.full(self.r.size - n, self.sf_R)])

    def evaluate(self, s):
        """P(|Y| > s) by the Nystrom interpolation formula, and its
        s-derivative with the sign flipped (the density of |Y|), for s <= R."""
        s = np.asarray(s, dtype=float)
        sf = 2.0 * ndtr(-s)
        density = (2.0 / _SQRT_2PI) * np.exp(-0.5 * s * s)
        for i in range(0, s.size, self._step):
            k, dk = _arch_kernel(s[i:i + self._step], self.r, self.theta1)
            sf[i:i + self._step] += k @ self._wsf
            density[i:i + self._step] -= dk @ self._wsf
        return sf, density


def arch_stationary_fit(theta0, theta1):
    """Solve the stationary marginal law of the volatility recursion.

    ``Y' = sqrt(theta0 + theta1 Y^2) W`` scales with ``sqrt(theta0)``, so the
    law of |Y| is solved at theta0 = 1 (:class:`_ArchNystrom`: one linear
    solve, Pareto beyond R = 1e5 with the exact tail index), tabulated with its
    density at 2560 knots and scaled.  The returned
    :class:`margins.ArchStationaryLaw` records in ``residual`` the largest
    difference between its table and the Nystrom formula at the knot
    midpoints: relative in sf, and in the quantile relative to
    max(|x|, sqrt(theta0)).  Above 1e-8 this raises ConvergenceError, as does
    a tail too light for doubles at R (theta1 below about 0.038).
    """
    if theta0 <= 0.0:
        raise ValidationError("theta0 must be positive")
    if not 0.0 < theta1 < 1.0:
        raise ValidationError("theta1 must lie in (0, 1) for a stationary fit")
    kappa = arch_tail_index(theta1)
    sol = _ArchNystrom(theta1, kappa)
    if not sol.sf_R > 1e-300:
        raise ConvergenceError(
            f"P(|Y| > {_ARCH_R:g} sqrt(theta0)) = {sol.sf_R:.3g} is too small for "
            f"doubles at theta1 = {theta1}")
    lin, log = _ARCH_KNOTS
    knots = np.concatenate([np.linspace(0.0, _ARCH_SPLIT, lin + 1)[:-1],
                            np.geomspace(_ARCH_SPLIT, _ARCH_R, log)])
    scale = math.sqrt(theta0)
    sf, density = sol.evaluate(knots)
    law = margins.ArchStationaryLaw(theta0, theta1, kappa, scale * knots, sf,
                                    density / scale)
    mid = 0.5 * (knots[1:] + knots[:-1])
    exact = sol.evaluate(mid)[0]
    residual = max(
        float(np.max(np.abs(law.sf(scale * mid) / (0.5 * exact) - 1.0))),
        float(np.max(np.abs(law.isf(0.5 * exact) / scale - mid) / np.maximum(mid, 1.0))))
    if not residual <= _ARCH_TABLE_TOL:
        raise ConvergenceError(
            f"ARCH law table misses the Nystrom formula by {residual:.3g} "
            f"(tol {_ARCH_TABLE_TOL:g})")
    law.residual = residual
    return law


@dataclass
class FvSolution:
    """Solved stationary law of the centred exponential autoregression.

    ``grid`` carries the CDF; ``log_sf`` the log survival function on the same
    abscissae (kept separately because the kernel built from this law needs
    survival precision far below machine epsilon of the CDF); ``tail_const``
    continues the survival function as ``C * exp(-y)`` beyond the grid.
    """

    phi: float
    grid: GridFunction
    log_sf: np.ndarray
    tail_const: float
    residual: float
    iterations: int

    def sf(self, y):
        y = np.asarray(y, dtype=float)
        xs = self.grid.xs
        out = np.exp(np.interp(y, xs, self.log_sf))
        out = np.where(y <= xs[0], 1.0, out)
        beyond = y > xs[-1]
        if np.any(beyond):
            out = np.where(beyond, self.tail_const * np.exp(-y), out)
        return out

    def cdf(self, y):
        return 1.0 - self.sf(y)


def _fv_grid(phi, grid_size):
    lo = -1.0 / (1.0 - phi)
    split = min(12.0, 0.75 * 45.0)
    n_core = int(grid_size * 0.75)
    core = np.linspace(lo, split, n_core)
    tail = split * np.exp(np.linspace(0.0, np.log(45.0 / split), grid_size - n_core + 1))[1:]
    return np.concatenate([core, tail])


def _fv_apply(phi, ys, sf):
    """One application of the survival-form stationarity map.

    S_new(y) = exp(phi*l - (y+1)) + phi exp(-(y+1)) * int_l^{(y+1)/phi} e^{phi x} S(x) dx,
    with the integral continued analytically beyond the grid using the
    exponential tail S(x) ~ C e^{-x}.
    """
    lo = ys[0]
    g = np.exp(phi * ys) * sf
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(ys))])
    b = (ys + 1.0) / phi
    ymax = ys[-1]
    integral = np.interp(np.minimum(b, ymax), ys, cum)
    tail_c = sf[-1] * np.exp(ymax)
    beyond = b > ymax
    if np.any(beyond):
        extra = tail_c / (phi - 1.0) * (
            np.exp((phi - 1.0) * b[beyond]) - np.exp((phi - 1.0) * ymax))
        integral = integral.copy()
        integral[beyond] += extra
    return np.exp(phi * lo - (ys + 1.0)) + phi * np.exp(-(ys + 1.0)) * integral


def _solve_fv(phi, grid_size=2048, tol=1e-9, max_iter=2000):
    ys = _fv_grid(phi, grid_size)
    sd = 1.0 / math.sqrt(1.0 - phi * phi)
    sf = ndtr(-(ys / sd))
    sf[0] = 1.0
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        new = _fv_apply(phi, ys, sf)
        residual = float(np.max(np.abs(new - sf)))
        # damped update keeps the iteration stable for phi close to 1
        sf = 0.5 * sf + 0.5 * new
        if residual < tol:
            break
    else:
        raise ConvergenceError(
            f"fixed point not reached: residual {residual} after {max_iter} iterations")
    sf = np.maximum(sf, 1e-320)
    cdfv = np.clip(1.0 - sf, 0.0, 1.0)
    cdfv[0] = 0.0
    cdfv = np.maximum.accumulate(cdfv)
    grid = GridFunction(ys, cdfv)
    tail_const = float(sf[-1] * np.exp(ys[-1]))
    return FvSolution(phi, grid, np.log(sf), tail_const, residual, it)


def solve_Fv_fixed_point(phi, grid_size=2048, tol=1e-9, max_iter=2000):
    """Stationary CDF of ``V' = phi V + (E - 1)`` with unit exponential ``E``.

    Damped fixed-point iteration of the survival-form stationarity map on a
    ``grid_size``-point grid spanning the support from ``-1/(1-phi)``; the
    returned :class:`FvSolution` (CDF grid and survival data) has fixed-point
    residual below ``tol``.
    """
    if not 0.0 < phi < 1.0:
        raise ValidationError("phi must lie in (0, 1)")
    return _solve_fv(phi, grid_size=grid_size, tol=tol, max_iter=max_iter)


def fv_residual(sol, refine=2):
    """Independent residual check on a ``refine``-times finer grid."""
    xs = sol.grid.xs
    pieces = [xs]
    for j in range(1, refine):
        pieces.append(xs[:-1] + (j / refine) * np.diff(xs))
    fine = np.unique(np.concatenate(pieces))
    sf_fine = sol.sf(fine)
    new = _fv_apply(sol.phi, fine, sf_fine)
    return float(np.max(np.abs(new - sf_fine)))
