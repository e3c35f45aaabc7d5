"""The bespoke solves the example chains need: the stationary law of the
exponential autoregression (its series, and its pantograph equation on
Chebyshev panels), and the tail index and stationary law of the ARCH(1)
recursion, from one Nystrom solve of its stationarity equation by parts.
"""

import math

import numpy as np
from scipy.special import gammaln, ndtr

from . import margins
from .errors import ConvergenceError, ValidationError

__all__ = ["ExpARLaw", "arch_tail_index", "arch_stationary_fit"]


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


_EXPAR_FLAT = 2.0 ** -60          # a panel that moves G by less ends the integration
_EXPAR_FLOOR = 2.0 ** -52         # the Lambda below which the law is linear in s
_EXPAR_PHI_MAX = 0.99


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
    scale.  Lambda and its inverse are Chebyshev series on each panel, in s
    and in log Lambda, linear below 2^-52.  phi above 0.99 is refused: a_0 ~
    exp(pi^2 / (6 (1 - phi))) and the panels grow without bound as phi -> 1.
    """

    def __init__(self, phi):
        if not 0.0 < phi <= _EXPAR_PHI_MAX:
            raise ValidationError(f"ExpAR phi must lie in (0, {_EXPAR_PHI_MAX}]; got {phi}")
        self.phi = phi = float(phi)
        # n Chebyshev points; node values -> series, and the integrals of the
        # interpolant from -1 to each node, to 1 and from each node to 1
        cheb, n = np.polynomial.chebyshev, 16
        x = -np.cos(np.pi * (np.arange(n) + 0.5) / n)
        vinv = cheb.chebvander(x, n - 1).T * np.where(np.arange(n) > 0, 2.0, 1.0)[:, None] / n
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
        self._edges, self._s_lo, nodes = edges[:p + 1], edges[p], nodes[:p]   # s_lo for now
        self._linear = np.arange(p) < first
        rise, c = np.array(rise[first:]), np.array(c[first:])
        sf = (1.0 + np.cumsum(rise)[:, None] - c) / total
        cdf = (np.append(np.cumsum(rise[:0:-1])[::-1], 0.0)[:, None] + c) / total
        lam = np.concatenate([-np.log(h), np.where(cdf < 0.5, -np.log1p(-cdf), -np.log(sf))])
        self._coef = vinv @ lam.T

        # the inverse in u = log Lambda on equal panels, and the floor's s
        lam = (lam + self._linear[:, None] * (nodes - self.log_a0))[::-1]
        inside = lam >= _EXPAR_FLOOR / 16.0
        known, nodes = np.log(lam[inside]), nodes[::-1][inside]        # ascending
        u_lo = math.log(_EXPAR_FLOOR)
        count = math.ceil(math.log(self.tail - self.log_a0) - u_lo)
        u = np.append(u_lo + np.arange(count)[:, None] + 0.5 * (x + 1.0), u_lo)
        s = np.interp(u, known, nodes)
        for _ in range(5):                      # Lambda' = 1 - G(s/phi) / G(s)
            lam = self.cumhaz(s)
            slope = -np.expm1(lam - self.cumhaz(s / phi))
            s = np.maximum(s - (np.log(lam) - u) * lam / slope, nodes[0])
        self._s_lo = float(s[-1])
        s = s[:-1].reshape(count, n)          # s[:, 0] out of the sums, its rounding
        self._icoef = vinv @ (s - s[:, :1]).T    # not spread over every coefficient
        self._icoef[0] += s[:, 0]

    def cumhaz(self, s):
        """Lambda(s) = -log P(S > s); 0 at and below s = 0."""
        s = np.asarray(s, dtype=float)
        inside = np.clip(s, self._s_lo, self.tail)
        p = np.clip((np.log(self.tail / inside) / self._step).astype(int), 0, self._edges.size - 2)
        lo, hi = self._edges[p + 1], self._edges[p]
        x = ((inside - lo) + (inside - hi)) / (hi - lo)
        lam = _chebval(self._coef, p, x) + self._linear[p] * (inside - self.log_a0)
        low = _EXPAR_FLOOR / self._s_lo * np.maximum(s, 0.0)
        return np.where(s >= self.tail, s - self.log_a0, np.where(s > self._s_lo, lam, low))

    def inverse_cumhaz(self, y):
        """The s with Lambda(s) = y, for y >= 0."""
        y = np.asarray(y, dtype=float)
        u = np.log(np.clip(y, _EXPAR_FLOOR, self.tail - self.log_a0) / _EXPAR_FLOOR)
        j = np.minimum(u.astype(int), self._icoef.shape[1] - 1)
        s = _chebval(self._icoef, j, 2.0 * (u - j) - 1.0)
        low = self._s_lo / _EXPAR_FLOOR * np.clip(y, 0.0, _EXPAR_FLOOR)
        return np.where(y >= self.tail - self.log_a0, y + self.log_a0,
                        np.where(y > _EXPAR_FLOOR, s, low))
