"""The bespoke solves the example chains need, on numpy and ``scipy.special``:
the stationary law of the exponential autoregression (its series, and its
pantograph equation on Chebyshev panels), and the tail index and stationary
law of the ARCH(1) recursion (a Newton root of its moment equation, and one
Nystrom solve of its stationarity equation by parts).  Both laws are a
cumulative hazard Lambda(s) = -log P(S > s) and its inverse, which map the
kernels' exponential and Laplace states onto each chain's own scale.  And
:func:`inverse_table`, one adaptive piecewise-Chebyshev table of an
increasing function both ways, which holds the ARCH law (log Lambda against
log |Y|), the inverted max-stable kernels' laws and the ExpAR law's inverse.
"""

import math

import numpy as np
from scipy.special import erf, gammaln, ndtr, psi

from .errors import ConvergenceError, ValidationError

__all__ = ["ExpARLaw", "ArchStationaryLaw", "InverseTable", "arch_tail_index",
           "arch_stationary_fit", "inverse_table"]

# 1/2 log(pi), as a double and the rounding error of that double; 1/2 log(2)
_HALF_LOG_PI = 0.5723649429247001
_HALF_LOG_PI_LO = 5.132975581353913e-18
_HALF_LOG_2 = 0.5 * math.log(2.0)


def _product_error(a, b):
    """The rounding error of ``a * b``, exactly (Dekker's two-product)."""
    ah, bh = (134217729.0 * v - (134217729.0 * v - v) for v in (a, b))   # 2^27 + 1
    al, bl = a - ah, b - bh
    return ((ah * bh - a * b) + ah * bl + al * bh) + al * bl


def _chebval(coef, p, x):
    """numpy's ``chebval(x, coef[:, p], tensor=False)`` bit for bit, one row at a time."""
    x2, c0, c1 = 2.0 * x, coef[-2].take(p), coef[-1].take(p)
    for row in coef[-3::-1]:
        c0, c1 = row.take(p) - c1, c0 + c1 * x2
    return c0 + c1 * x


def _chebyshev(n):
    """n Chebyshev points on [-1, 1] and the matrix from values there to the
    coefficients of their Chebyshev series."""
    x = -np.cos(np.pi * (np.arange(n) + 0.5) / n)
    vinv = (np.polynomial.chebyshev.chebvander(x, n - 1).T
            * np.where(np.arange(n) > 0, 2.0, 1.0)[:, None] / n)
    return x, vinv


def _cheb_fit(vinv, values):
    """Chebyshev series of node values, one row per panel: coefficients (a
    column per panel) of the values less the panel's first, and the first
    values, added last so that their rounding is not spread over them all."""
    return vinv @ (values - values[:, :1]).T, values[:, 0]


def _series(table, p, x):
    """The series of :func:`_cheb_fit` on panel p at x."""
    coef, first = table
    return first[p] + _chebval(coef, p, x)


def _panel(edges, z):
    """The panel between ascending ``edges`` that holds z (the first or last one
    beyond them), and z mapped onto [-1, 1] there."""
    p = np.searchsorted(edges[1:-1], z, side="right")
    lo, hi = edges[p], edges[p + 1]
    return p, ((z - lo) + (z - hi)) / (hi - lo)


# The root u is about e / (2 theta1): from theta1 = 1e-299 up, kappa = 2u and
# the hidden chain's innovations, a few hundred kappa at most, stay finite.
_TAIL_THETA1_MIN = 1e-299


def arch_tail_index(theta1):
    """Tail index kappa of the stationary volatility recursion.

    Solves ``E[(theta1 * W^2)^u] = 1`` for the positive root, i.e. the root of
    the convex ``g(u) = u log(2 theta1) + log Gamma(u + 1/2) - log(pi) / 2``,
    and returns ``kappa = 2u``.  g(0) = 0, g(1) = log theta1 < 0 and g is
    unbounded, so Newton's method from the first doubling of u with g(u) >= 0
    decreases to the root; it stops when an iterate no longer decreases.
    g is evaluated with the rounding errors of ``u log(2 theta1)``, of
    ``u + 1/2``, of the sum and of ``log(pi) / 2`` added back; from u = 4096
    up by Stirling's series, u (log(2 theta1 u) - 1) + log(2)/2 - 1/(24 u) to
    double precision, whose terms do not cancel (2 theta1 u is near e).
    ``theta1 = 1`` gives exactly 2 since ``E[W^2] = 1``.
    """
    if not _TAIL_THETA1_MIN <= theta1 <= 1.0:
        raise ValidationError(f"theta1 must lie in [{_TAIL_THETA1_MIN}, 1]")
    if theta1 == 1.0:
        return 2.0
    log_2t = math.log(2.0 * theta1)

    def g(u):
        if u >= 4096.0:
            return u * (math.log(2.0 * theta1 * u) - 1.0) + (_HALF_LOG_2 - 1.0 / (24.0 * u))
        a = u + 0.5
        a_err = 0.5 - (a - u)           # u >= 1, so u + 1/2 = a + a_err exactly
        p, lg = u * log_2t, float(gammaln(a))
        s = p + lg
        b = s - p
        s_err = (p - (s - b)) + (lg - b)        # p + lg = s + s_err exactly
        return (s - _HALF_LOG_PI) + (s_err + _product_error(u, log_2t)
                                     + float(psi(a)) * a_err - _HALF_LOG_PI_LO)

    u = 1.0
    while g(u) < 0.0:
        u *= 2.0
    while (step := u - g(u) / (log_2t + float(psi(u + 0.5)))) < u:
        u = step
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
# The table: log Lambda against log s in steps of 4 from e^-38 (below, log Lambda =
# log s + log rho(0) in doubles) to _ARCH_R; its residual, and the most it may carry.
_ARCH_GRID = np.append(np.arange(-38.0, math.log(_ARCH_R), 4.0), math.log(_ARCH_R))
_ARCH_TOL = 1e-13
_ARCH_TABLE_TOL = 1e-8
# Kernel evaluations go in row blocks of at most this many elements (256 KB),
# small enough to stay in cache.
_BLOCK_ELEMS = 1 << 15
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
        """P(|Y| > s) and P(|Y| <= s) by the Nystrom interpolation formula, each
        a sum of its own (neither is 1 less the other), and the density, s <= R."""
        s = np.asarray(s, dtype=float)
        sf, cdf = 2.0 * ndtr(-s), erf(s / math.sqrt(2.0))
        density = (2.0 / _SQRT_2PI) * np.exp(-0.5 * s * s)
        for i in range(0, s.size, self._step):
            k, dk = _arch_kernel(s[i:i + self._step], self.r, self.theta1)
            part = k @ self._wsf
            sf[i:i + self._step] += part
            cdf[i:i + self._step] -= part
            density[i:i + self._step] -= dk @ self._wsf
        return sf, cdf, density


class ArchStationaryLaw:
    """Stationary law of the squared-volatility recursion, from a solved table.

    The symmetric law is carried by the cumulative hazard of |Y|, Lambda(s) =
    -log P(|Y| > s), and its inverse, in log s: a standard Laplace state x is
    log|Y| = log Lambda^-1(|x|).  ``table`` holds log Lambda against log s, s =
    |Y| / sqrt(theta0); its end line below is log Lambda = log s + log rho(0),
    rho the density of s, exact in doubles.  Beyond ``tail`` (1e5
    sqrt(theta0)) Lambda(s) = Lambda(tail) + kappa log(s / tail), exactly.
    """

    def __init__(self, theta0, theta1, kappa, table):
        self.theta0, self.theta1, self.kappa = float(theta0), float(theta1), float(kappa)
        self._table, self.residual = table, table.residual
        self._log_scale = 0.5 * math.log(self.theta0)
        self._log_top, self._m_top = table.ends[1], math.exp(table.y_ends[1])
        self.tail = math.sqrt(self.theta0) * math.exp(self._log_top)

    def cumhaz_at_log(self, t):
        """Lambda(e^t) = -log P(|Y| > e^t); 0 at t = -inf."""
        u = np.asarray(t, dtype=float) - self._log_scale
        lam = np.exp(self._table.forward(np.minimum(u, self._log_top)))
        pareto = self._m_top + self.kappa * (np.maximum(u, self._log_top) - self._log_top)
        return np.where(u <= self._log_top, np.minimum(lam, self._m_top), pareto)

    def log_inverse_cumhaz(self, m):
        """log s for the s >= 0 with Lambda(s) = m, for m >= 0; -inf at m = 0."""
        m = np.asarray(m, dtype=float)
        log_m = np.log(m, where=m > 0.0, out=np.full(m.shape, -np.inf))
        log_s = np.minimum(self._table(log_m), self._log_top)
        pareto = self._log_top + (np.maximum(m, self._m_top) - self._m_top) / self.kappa
        return self._log_scale + np.where(m > self._m_top, pareto, log_s)


def arch_stationary_fit(theta0, theta1):
    """Solve the stationary marginal law of the volatility recursion.

    ``Y' = sqrt(theta0 + theta1 Y^2) W`` scales with ``sqrt(theta0)``, so the
    law of |Y| is solved at theta0 = 1 (:class:`_ArchNystrom`: one linear
    solve, Pareto beyond R = 1e5 with the exact tail index) and tabulated, to
    1e-13 both ways, as log Lambda against log s: Lambda = -log1p(-P(|Y| <=
    s)) below log 2, else -log P(|Y| > s), each from its own sum so that it
    keeps its digits as s -> 0.  A ``residual`` above 1e-8 raises
    ConvergenceError, as do a Lambda that does not increase over the grid and
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

    def log_cumhaz(t):
        # and its slope, s Lambda'(s) / Lambda with Lambda' = density / sf
        s = np.exp(t)
        sf, cdf, density = sol.evaluate(s)
        lam = np.where(sf > 0.5, -np.log1p(-np.minimum(cdf, 0.75)), -np.log(sf))
        return np.log(lam), s * density / (sf * lam)

    table = inverse_table(log_cumhaz, _ARCH_GRID, _ARCH_TOL)
    if not (table.residual <= _ARCH_TABLE_TOL and np.array_equal(table.ends, _ARCH_GRID[[0, -1]])):
        raise ConvergenceError(
            f"ARCH law table at theta1 = {theta1} misses the Nystrom formula by "
            f"{table.residual:.3g} (tol {_ARCH_TABLE_TOL:g}), or its Lambda does not increase")
    return ArchStationaryLaw(theta0, theta1, kappa, table)


# Tables: the Chebyshev points per panel, the most panels, the least rise of f
# (of max(1, |f|)) and width of a panel still cut, and the fractions of the gap
# to the grid point beyond an end, from either side, at which it is tried.  t
# is a log, so a miss in t of a few ulps of 1 is a draw within a few ulps.
_CHEB = 16
_EPS = np.finfo(float).eps
_TABLE_PANELS = 1024
_TABLE_RISE = 1e-8
_TABLE_WIDTH = 1e-12
_APPROACH = np.append(np.arange(1.0, 17.0) / 32.0, 2.0 ** -np.arange(6.0, 1075.0))


class InverseTable:
    """An increasing f(t) = y both ways, on the same panels: t(y) a Chebyshev
    series in y on each panel, and y(t) one in t, or in log |t| on a panel on
    one side of 0.  Beyond the panels each reads the line through the end
    (``ends`` in t, ``y_ends`` in y) with f's slope there.  ``residual`` is
    the largest miss of either, in the units :func:`inverse_table` states."""

    def __init__(self, edges, series, t_edges, forward_series, slopes, residual):
        self._edges, self._series, self._t_edges = edges, series, t_edges
        self._forward_series, self._slopes, self.residual = forward_series, slopes, residual
        self.ends, self.y_ends = t_edges[[0, -1]], edges[[0, -1]]
        ta, tb = t_edges[:-1], t_edges[1:]
        geo = self._geometric = np.sign(ta) == np.sign(tb)   # log(tb / ta) there, else 1
        self._log_span = np.log(np.divide(tb, ta, where=geo, out=np.full(ta.shape, math.e)))

    def __call__(self, y):
        """t(y), held to the panel's range in t."""
        y = np.asarray(y, dtype=float)
        lo, hi = self.y_ends
        p, z = _panel(self._edges, np.clip(y, lo, hi))
        t = np.clip(_series(self._series, p, z), self._t_edges[p], self._t_edges[p + 1])
        return np.where(y < lo, self.ends[0] + (y - lo) / self._slopes[0],
                        np.where(y > hi, self.ends[1] + (y - hi) / self._slopes[1], t))

    def forward(self, t):
        """y(t)."""
        t = np.asarray(t, dtype=float)
        lo, hi = self.ends
        p, z = _panel(self._t_edges, inner := np.clip(t, lo, hi))
        geometric = self._geometric[p]
        ratio = np.divide(inner, self._t_edges[p], where=geometric, out=np.ones(inner.shape))
        z = np.where(geometric, 2.0 * np.log(ratio) / self._log_span[p] - 1.0, z)
        y = _series(self._forward_series, p, z)
        return np.where(t < lo, self.y_ends[0] + (t - lo) * self._slopes[0],
                        np.where(t > hi, self.y_ends[1] + (t - hi) * self._slopes[1], y))


def _spread(ta, tb, q):
    """The points at fractions q of [ta, tb]: of its range in log |t| where it
    lies on one side of 0, exactly ta and tb at q = 0 and 1, else in t."""
    with np.errstate(divide="ignore", invalid="ignore"):
        geometric = np.sign(ta) * np.abs(ta) ** (1.0 - q) * np.abs(tb) ** q
    return np.where(np.sign(ta) == np.sign(tb), geometric, ta + (tb - ta) * q)


def inverse_table(f, t, tol, y_range=(-np.inf, np.inf)):
    """An increasing function both ways, ``f(t)`` returning f, its slope and
    optionally the weight of a unit of f to the caller, as an InverseTable.

    The table spans the run of the ascending grid ``t`` from its first point
    with f in ``y_range`` over which f stays in range and increases, each end
    moved towards the grid point beyond while f stays in range: by 32 equal
    steps and by steps that halve the gap from either side (not within 1e-4
    of that point, where f may blow up), then by 32 steps to the next one.
    On each panel, at first between those points, f is taken at 16 Chebyshev
    points in t, or in log |t| on one side of 0 (so that f blowing up at 0
    takes a few rounds); f is their series there, and t is interpolated in y
    at the same points, held to the panel.  Each series' miss in f (for t, its
    miss times f's slope where above four ulps of 1, as t is a log) times the
    weight, at the ends and halfway between nodes, is the residual.  Above
    ``tol`` the panel is cut in four, unless f rises over it by less than 1e-8
    of max(1, |f|) or it is narrower than 1e-12 (of its distance from 0, where
    in log |t|): the miss is then f's own noise or step.  More than 1024
    panels raise ConvergenceError.
    """
    x, vinv = _chebyshev(_CHEB)
    z = np.concatenate([[-1.0], x, 0.5 * (x[1:] + x[:-1]), [1.0]])
    t = np.asarray(t, dtype=float)
    y = f(t)[0]
    ok = (y >= y_range[0]) & (y <= y_range[1])
    if not ok.any():
        raise ConvergenceError(f"no grid point maps into {y_range}")
    i = int(np.argmax(ok))
    j = i + int(np.logical_and.accumulate(ok[i:] & np.append(True, y[i + 1:] > y[i:-1])).sum())

    def kept(points):             # the leading run of points f keeps in range
        yp = f(points)[0]
        return points[:np.logical_and.accumulate((yp >= y_range[0]) & (yp <= y_range[1])).sum()]

    edges = [t[i:j]]
    for good, bad in ((i, i - 1), (j - 1, j)):
        if 0 <= bad < t.size:
            gap = t[bad] - t[good]
            near = np.unique(np.concatenate([t[good] + gap * _APPROACH, t[bad] - gap * _APPROACH]))
            near = near[(near != t[good]) & (np.abs(near - t[bad]) >= 1e-4 * abs(t[bad]))]
            near = near[::1 if gap > 0.0 else -1]
            keep = kept(near)
            if 0 < keep.size < near.size:       # and in 32 steps to the next point
                last, beyond = near[keep.size - 1:keep.size + 1]
                keep = np.append(keep, kept(last + (beyond - last) * np.arange(1.0, 32.0) / 32.0))
            edges.append(keep[-1:])
    edges = np.unique(np.concatenate(edges))
    todo, done = np.stack([edges[:-1], edges[1:]], axis=1), []
    while todo.size:
        if len(todo) + sum(map(len, done)) > _TABLE_PANELS:
            raise ConvergenceError(f"table needs more than {_TABLE_PANELS} panels")
        ta, tb = todo[:, :1], todo[:, 1:]
        tz = _spread(ta, tb, 0.5 * (z + 1.0))
        yz, slope, *weight = (v.reshape(tz.shape) for v in f(tz.ravel()))
        ya, yb, n = yz[:, :1], yz[:, -1:], x.size + 1
        u = ((yz - ya) + (yz - yb)) / (yb - ya)               # y mapped onto [-1, 1]
        coef = (np.linalg.pinv(np.polynomial.chebyshev.chebvander(u[:, 1:n], x.size - 1))
                @ (tz[:, 1:n] - ta)[..., None])[..., 0]
        rows = np.arange(len(todo))[:, None]
        miss = np.abs(np.clip(_series((coef.T, ta[:, 0]), rows, u), ta, tb) - tz)
        forward = _cheb_fit(vinv, yz[:, 1:n])
        miss = np.maximum(np.where(miss <= 4.0 * _EPS, 0.0, miss * slope),
                          np.abs(_series(forward, rows, z) - yz))
        worst = np.max(miss * np.prod(weight, axis=0), axis=1)
        # the width is relative to the distance from 0 where spread in log |t|
        scale = np.where(np.sign(ta) == np.sign(tb), np.minimum(np.abs(ta), np.abs(tb)), 1.0)
        fine = ((worst <= tol) | (np.abs(tb - ta) <= _TABLE_WIDTH * scale)[:, 0]
                | ((yb - ya) <= _TABLE_RISE * np.maximum(np.abs(ya), 1.0))[:, 0])
        done.append(np.concatenate([ya, yb, ta, tb, coef, forward[0].T, forward[1][:, None],
                                    worst[:, None]], axis=1)[fine])
        cut = _spread(ta[~fine], tb[~fine], np.linspace(0.0, 1.0, 5))
        todo = np.stack([cut[:, :-1], cut[:, 1:]], axis=2).reshape(-1, 2)
    done = np.concatenate(done)
    done = done[np.argsort(done[:, 0])]
    inverse, forward = done[:, 4:4 + x.size], done[:, 4 + x.size:-2]
    return InverseTable(np.append(done[:, 0], done[-1, 1]), (inverse.T, done[:, 2]),
                        np.append(done[:, 2], done[-1, 3]), (forward.T, done[:, -2]),
                        f(edges[[0, -1]])[1], float(np.max(done[:, -1])))


_EXPAR_FLAT = 2.0 ** -60          # a panel that moves G by less ends the integration
_EXPAR_FLOOR = 2.0 ** -52         # the Lambda below which the law is linear in s
_EXPAR_PHI_MIN = 1e-300
_EXPAR_PHI_MAX = 0.99


class ExpARLaw:
    """Stationary law of S = sum_k phi^k E_k = V + 1/(1 - phi), V the state of
    ``V' = phi V + (E - 1)``: Lambda(s) = -log G(s), G(s) = P(S > s), and its
    inverse.  G = sum_k a_k exp(-s phi^-k), a_k = (-1)^k phi^(k(k+1)/2) /
    ((phi; phi)_k (phi; phi)_inf), is summed from R, the first 1/(1 - phi)
    phi^-j where it is well conditioned; beyond ``tail`` Lambda = s - log a_0.
    Below R, G solves G'(s) = G(s/phi) - G(s) (a pantograph equation, Kato and
    McLeod 1971) on panels of ratio phi^(1/m) >= 0.7 with the same Chebyshev
    points, so the lag of a node is the node m panels up: in H = e^s G while
    G < e^-5, then in G by sums of positive terms, until G = 1 fixes the
    scale.  Lambda is a Chebyshev series in s on each panel, and its inverse
    an :func:`inverse_table` of log Lambda against s, with its ``residual``;
    both are linear below 2^-52.  phi above 0.99 is refused: a_0 ~ exp(pi^2 /
    (6 (1 - phi))) and the panels grow without bound as phi -> 1.  phi below
    1e-300 is refused too: the series' tail starts near 1/phi, and beyond
    1e300 the panel arithmetic overflows.
    """

    def __init__(self, phi):
        if not 0.0 < phi <= _EXPAR_PHI_MAX:
            raise ValidationError(f"ExpAR phi must lie in (0, {_EXPAR_PHI_MAX}]; got {phi}")
        if phi < _EXPAR_PHI_MIN:
            raise ValidationError(f"ExpAR phi = {phi} is below {_EXPAR_PHI_MIN:g}, "
                                  "where the law's panel arithmetic overflows")
        self.phi = phi = float(phi)
        # n Chebyshev points; node values -> series, and the integrals of the
        # interpolant from -1 to each node, to 1 and from each node to 1
        cheb, n = np.polynomial.chebyshev, 16
        x, vinv = _chebyshev(n)
        anti = cheb.chebint(np.eye(n), lbnd=-1, axis=0) @ vinv
        below = cheb.chebvander(x, n) @ anti
        w = anti.sum(axis=0)
        q = w - below

        # the series over a_0: log|a_k / a_0|, signs and rates phi^-k - 1
        log_phi = math.log(phi)
        k = np.arange(2 + int(math.log1p(2000.0 * (1.0 - phi)) / -log_phi))
        log_ratio = np.cumsum(k * log_phi - np.log1p(-phi ** np.maximum(k, 1)) * (k > 0))
        sign, rate = 1.0 - 2.0 * (k % 2), np.expm1(-log_phi * k)

        def terms(s):
            return sign * np.exp(log_ratio - np.asarray(s)[..., None] * rate)

        top = 1.0 / (1.0 - phi)
        while np.abs(t := terms(top)).sum() > 2.0 * abs(t.sum()):
            top /= phi
        keep = log_ratio - top * rate > -60.0       # and smaller further up
        log_ratio, sign, rate = log_ratio[keep], sign[keep], rate[keep]
        m = max(1, math.ceil(log_phi / math.log(0.7)))
        self._step = step = -log_phi / m
        # beyond tail every k >= 1 term is below 2^-60 ~ e^-41.6 of the first
        beyond = np.max((log_ratio[1:] + 41.6) / rate[1:], initial=top)
        up = max(m, math.ceil(math.log(beyond / top) / step))
        self.tail = top * math.exp(up * step)

        # panel p spans edges[p + 1] .. edges[p], edges[p] = tail e^(-p step);
        # on the first up of them H / a_0 and H' / a_0 come from the series
        edges = self.tail * np.exp(-step * np.arange(up + 1))
        nodes = edges[1:, None] - 0.5 * np.diff(edges)[:, None] * (x + 1.0)
        h, dh = list(terms(nodes).sum(axis=-1)), list(-(terms(nodes) * rate).sum(axis=-1))
        h_top = float(terms(edges[up]).sum())
        gaps = np.zeros((up, n))

        def more():
            nonlocal edges, nodes, gaps
            start, count = edges.size, 64
            edges = np.append(edges, self.tail * np.exp(-step * np.arange(start, start + count)))
            half = -0.5 * np.diff(edges[start - 1:])[:, None]
            new = edges[start:, None] + half * (x + 1.0)
            nodes = np.concatenate([nodes, new])
            # s/phi: the node m panels up plus a rounding gap (ignored, an error in 1 - phi)
            above = nodes[start - 1 - m:-m]
            gaps = np.concatenate([gaps, (new - phi * above - _product_error(phi, above)) / phi])

        # explicit steps of H while G <= a_0 e^-s < e^-5
        switch = 5.0 - np.log1p(-phi ** np.arange(1, 2 + int(40.0 / -log_phi))).sum()
        p = up
        while edges[p] > switch:
            if p == len(nodes):
                more()
            dh.append(np.exp((phi - 1.0) / phi * nodes[p]) * (h[p - m] + gaps[p] * dh[p - m]))
            half = 0.5 * (edges[p] - edges[p + 1])
            h.append(h_top - half * (q @ dh[p]))
            h_top -= half * (w @ dh[p])
            p += 1
        # then G / G(b) through sums of positive terms, so that 1 - G keeps its
        # precision: f = G - G(s/phi), c = G(panel bottom) - G, panel rises
        b, first, f, c, rise, total = edges[p], p, [None] * p, [None] * p, [0.0] * p, 1.0
        while p == first or rise[-1] >= _EXPAR_FLAT * total:
            if p == len(nodes):
                more()
            j = p - m                   # lag = G(edges[p]) - G(s/phi)
            if j < first:
                lag = total - np.exp(b - nodes[j]) * (h[j] + gaps[p] * (dh[j] - h[j])) / h_top
            else:
                lag = sum(rise[j + 1:p]) + c[j] + gaps[p] * f[j]
            # G - G(top) = int_s^top e^(t - s) lag(t) dt, as G' = -(G - G(top) + lag)
            half = 0.5 * (edges[p] - edges[p + 1])
            decay = np.exp(nodes[p] - edges[p])
            f.append(half * (q @ (decay * lag)) / decay + lag)
            c.append(half * (below @ f[p]))
            rise.append(half * (w @ f[p]))
            total += rise[p]
            p += 1
        # G = 1 at the last edge fixes the scale; the table holds -log(H / a_0) =
        # Lambda - s + log a_0 where H was stepped (small, exact digits), else Lambda
        self.log_a0 = b - math.log(h_top) - math.log(total)
        self._edges, self._s_lo = edges[:p + 1], edges[p]         # s_lo for now
        self._linear = np.arange(p) < first
        rise, c = np.array(rise[first:]), np.array(c[first:])
        sf = (1.0 + np.cumsum(rise)[:, None] - c) / total
        cdf = (np.append(np.cumsum(rise[:0:-1])[::-1], 0.0)[:, None] + c) / total
        lam = np.concatenate([-np.log(h), np.where(cdf < 0.5, -np.log1p(-cdf), -np.log(sf))])
        self._coef = vinv @ lam.T

        # the inverse: log Lambda against s to 1e-13, relaxed past |log Lambda|
        # = 36 for a double's spacing, from the first edge down where Lambda is
        # below 2^-56 (further down log Lambda is noise), so that the floor's s
        # is read inside; top splits the span, 1e-16 to 1e300 at phi = 1e-300
        def log_cumhaz(s):
            # and its slope Lambda' / Lambda, Lambda' = 1 - G(s/phi) / G(s)
            lam = self.cumhaz(s)
            with np.errstate(over="ignore"):        # beyond 1.8e308, where G = 0
                lag = s / phi
            log_lam = np.log(lam)
            return (log_lam, -np.expm1(lam - self.cumhaz(lag)) / lam,
                    36.0 / np.maximum(np.abs(log_lam), 36.0))

        low = np.argmax(self.cumhaz(self._edges) < _EXPAR_FLOOR / 16.0)
        self._table = table = inverse_table(log_cumhaz, self._edges[[low, up, 0]], 1e-13,
                                            (math.log(_EXPAR_FLOOR / 16.0), np.inf))
        self.residual, self._s_lo = table.residual, float(table(math.log(_EXPAR_FLOOR)))

    def cumhaz(self, s):
        """Lambda(s) = -log P(S > s); 0 at and below s = 0."""
        s = np.asarray(s, dtype=float)
        inside = np.clip(s, self._s_lo, self.tail)
        # log tail - log s, not log(tail / s), which overflows where phi is tiny
        depth = math.log(self.tail) - np.log(inside)
        p = np.clip((depth / self._step).astype(int), 0, self._edges.size - 2)
        lo, hi = self._edges[p + 1], self._edges[p]
        x = ((inside - lo) + (inside - hi)) / (hi - lo)
        lam = _chebval(self._coef, p, x) + self._linear[p] * (inside - self.log_a0)
        low = _EXPAR_FLOOR / self._s_lo * np.clip(s, 0.0, self._s_lo)
        return np.where(s >= self.tail, s - self.log_a0, np.where(s > self._s_lo, lam, low))

    def inverse_cumhaz(self, y):
        """The s with Lambda(s) = y, for y >= 0."""
        y = np.asarray(y, dtype=float)
        s = self._table(np.log(np.clip(y, _EXPAR_FLOOR, self.tail - self.log_a0)))
        low = self._s_lo / _EXPAR_FLOOR * np.clip(y, 0.0, _EXPAR_FLOOR)
        return np.where(y >= self.tail - self.log_a0, y + self.log_a0,
                        np.where(y > _EXPAR_FLOOR, s, low))
