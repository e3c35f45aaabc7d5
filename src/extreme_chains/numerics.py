"""The two bespoke solves the example chains need: the stationary law of the
centred exponential autoregression and the tail index of the squared-volatility
recursion.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

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


def _simulate_arch_lanes(theta0, theta1, n_draws, rng, lanes=50000, burn=1500):
    """Stationary draws from the volatility recursion, vectorised over lanes."""
    y = math.sqrt(theta0 / (1.0 - theta1)) * rng.standard_normal(lanes)
    for _ in range(burn):
        y = np.sqrt(theta0 + theta1 * y * y) * rng.standard_normal(lanes)
        if not np.all(np.isfinite(y)):
            raise ConvergenceError("non-finite state in volatility recursion")
    out = []
    kept = 0
    while kept < n_draws:
        y = np.sqrt(theta0 + theta1 * y * y) * rng.standard_normal(lanes)
        out.append(y.copy())
        kept += lanes
    flat = np.concatenate(out)[:n_draws]
    if not np.all(np.isfinite(flat)):
        raise ConvergenceError("non-finite state in volatility recursion")
    return flat


def arch_stationary_fit(theta0, theta1, seed=0, n_draws=10_000_000,
                        grid_size=4096):
    """Fit the stationary marginal law of the volatility recursion.

    Simulates ``n_draws`` stationary states (partitioned over vectorised
    lanes), symmetrises the empirical CDF onto a ``grid_size``-point grid and
    blends into the analytic Pareto tail beyond the empirical 0.999 quantile,
    choosing the tail constant by continuity at the blend point.
    """
    if theta0 <= 0.0:
        raise ValidationError("theta0 must be positive")
    if not 0.0 < theta1 < 1.0:
        raise ValidationError("theta1 must lie in (0, 1) for a stationary fit")
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(0xA12C,)))
    kappa = arch_tail_index(theta1)
    a = np.sort(np.abs(_simulate_arch_lanes(theta0, theta1, n_draws, rng)))
    n = a.size
    # blend where F = 0.999, i.e. P(|Y| > x_b) = 0.002 by symmetry
    blend_x = a[min(int(0.998 * n), n - 1)]
    c = 0.001 * blend_x ** kappa
    half = grid_size // 2
    levels = np.linspace(0.0, 0.998, half)
    pos_x = np.quantile(a, levels)
    pos_x = np.maximum.accumulate(pos_x)
    # enforce strict increase by nudging ties
    eps = 1e-12 * max(1.0, blend_x)
    for i in range(1, half):
        if pos_x[i] <= pos_x[i - 1]:
            pos_x[i] = pos_x[i - 1] + eps
    sf_half = 1.0 - np.searchsorted(a, pos_x, side="right") / n  # P(|Y| > x)
    pos_F = 1.0 - 0.5 * sf_half
    grid_x = np.concatenate([-pos_x[:0:-1], pos_x])
    grid_F = np.concatenate([1.0 - pos_F[:0:-1], pos_F])
    return margins.ArchStationaryLaw(theta0, theta1, kappa, c, blend_x,
                                     grid_x, grid_F)


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
    from scipy.stats import norm as _norm
    sf = _norm.sf(ys / sd)
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
