"""Bivariate transition kernels with exact conditional CDFs.

Every kernel declares its stationary law (exponential, Laplace or Gaussian)
and exposes ``cdf(x, y)`` (vectorised in either argument) and
``sample(x, rng)``.  A kernel whose closed form sits on another scale moves
states there with ``margins.transform``: the Gaussian copula reads
``margins.GAUSSIAN``, and the BEV logistic and asymmetric logistic kernels,
extreme-value copulas written on Frechet margins, read ``margins.GUMBEL``, the
log of the Frechet value, which stays finite beyond x ~ 709 where the Frechet
value itself overflows.

Sampling is one code path per kernel, and no kernel finds a root.  Only the
BEV logistic pair draws ``ppf(x, U)``, exact through the Wright omega
function.  The others draw by their defining mechanism in ``_draw``:
conditional normal, volatility recursion, tail-switching recursion,
exponential autoregression, mixture pick, Tawn's max construction, and for
the inverted max-stable kernels Y = x / max(W, R) (Dombry, Eyi-Minko and
Ribatet, 2013), from two tables free of x (``numerics.inverse_table``), which
a density family's cdf also reads.
"""

import functools
import math

import numpy as np
from scipy.special import erfcx, expit, log_ndtr, ndtr, wrightomega

from . import margins, numerics
from .errors import AccuracyError, DomainError, ValidationError, build, from_spec

__all__ = [
    "ExponentMeasure",
    "HuslerReiss",
    "DensityFamily",
    "density_constant",
    "density_logistic",
    "density_power_decay",
    "density_exp_decay",
    "GaussianCopulaKernel",
    "BevLogisticKernel",
    "InvertedBevLogisticKernel",
    "AsymmetricLogisticKernel",
    "InvertedMaxStableKernel",
    "ExpARKernel",
    "HtMixtureKernel",
    "RootzenSmithKernel",
    "ArchLaplaceKernel",
    "make_kernel",
    "KERNEL_IDS",
]


# ---------------------------------------------------------------------------
# exponent measures
# ---------------------------------------------------------------------------

# The inverted max-stable kernels' tables hold 1e-12 in units of probability
# for the cdf and the draws.  The R table: log r from -40 (psi = 1/r - 1 in
# doubles) in steps of 20 to where -log psi passes 690 (R carries x e^-690).
_TABLE_TOL = 1e-12
_LOG_R_GRID = np.arange(-40.0, 701.0, 20.0)
_LOG_PSI_TOP = 690.0


class ExponentMeasure:
    """Bivariate exponent function V, homogeneous of order -1, read through
    the terms at (1, w) that the inverted kernel needs.

    Subclasses provide ``unit_terms(w)``, V_1(1, w) (the derivative in the
    first slot) and 1 - V(1, w) without cancellation, for its cdf; and for its
    draw ``neg_log_psi(t)``, -log psi(e^t) for psi(r) = V(1, r) - 1 and its
    slope in t (whence ``r_table``), and ``draw_log_w(rng, shape)``, log W for
    P(W <= w) = -V_1(1, w); ``log_w_knots``, the log w where these are kinked.
    """

    name = "exponent"
    log_w_knots = ()

    @functools.cached_property
    def r_table(self):
        """-log psi against log r, built on first use.  A miss d in it moves
        exp(-x psi), read by the cdf and R, by x psi exp(-x psi) d: below d / e,
        and below 1e6 psi d at the states x up to 1e6, its weight."""
        def neg_log_psi(t):
            y, slope = self.neg_log_psi(t)
            return y, slope, np.minimum(1e6 * np.exp(-y), 1.0 / math.e)

        return numerics.inverse_table(neg_log_psi, np.union1d(_LOG_R_GRID, self.log_w_knots),
                                      _TABLE_TOL, (-np.inf, _LOG_PSI_TOP))


# Below this gamma, Husler-Reiss psi is the integral of the Mills ratio, where
# the two normal forms cancel to about 1e-16 |t| / gamma; 8 Gauss-Legendre
# nodes hold it to 1e-15 over a range of width gamma.
_HR_MILLS_GAMMA = 0.1


class HuslerReiss(ExponentMeasure):
    """Husler-Reiss dependence: V(x,y) = Phi(g/2 + log(y/x)/g)/x + (x<->y).

    log W = g (N - g/2) for a standard normal N, and psi(e^t) = e^-t Phi(d1)
    - Phi(d2), a call price, with d1 = g/2 - t/g and d2 = d1 - g.
    """

    name = "husler_reiss"

    def __init__(self, gamma):
        if gamma <= 0.0:
            raise ValidationError("husler_reiss gamma must be positive")
        self.gamma = float(gamma)
        # log w clipped where ndtr is 0 or 1 keeps lw / gamma finite; log W is held at -1.8e308
        self._lw_cap = self.gamma * (self.gamma / 2.0 + 40.0)
        self._z_lo = -float(np.finfo(float).max) / self.gamma

    def unit_terms(self, w):
        # V_1 is exact (the two density terms cancel, leaving -Phi(z)); 1 - V = -psi
        lw = np.log(np.asarray(w, dtype=float))
        z = self.gamma / 2.0 + np.clip(lw, -self._lw_cap, self._lw_cap) / self.gamma
        return -ndtr(z), -np.exp(self._log_psi(lw))

    def _log_psi(self, t):
        """log psi(e^t) by put-call parity for t <= 0 (expm1(-t) plus the put),
        as the call for t > 0, and for small gamma from a = -d1 = t/g - g/2 up
        as phi(d2) times the integral of 1 - s m(s) over [a, a + g], m the
        Mills ratio, which is m(a) - m(a + g)."""
        g, t = self.gamma, np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):        # |t| / gamma past doubles: a = -inf or inf
            a = t / g - g / 2.0
        # each form is taken where it does not cancel, but formed everywhere: e^-t
        # overflows below t = -709, and inf * 0 there makes the put nan
        with np.errstate(over="ignore", invalid="ignore"):
            price = np.where(t <= 0.0, np.expm1(-t) + ndtr(a + g) - np.exp(-t) * ndtr(a),
                             np.exp(-t) * ndtr(-a) - ndtr(-a - g))
        with np.errstate(divide="ignore"):      # the call underflows to 0 far up
            log_psi = np.log(price)
        if g < _HR_MILLS_GAMMA:
            # for a in [-20, inf) only: at a = inf the call is 0 and the integral 0 * inf
            mid = (a >= -20.0) & (a < np.inf)
            a = np.where(mid, a, 0.0)
            nodes, weights = np.polynomial.legendre.leggauss(8)
            s = a[..., None] + 0.5 * g * (nodes + 1.0)
            mills = math.sqrt(0.5 * math.pi) * erfcx(s / math.sqrt(2.0))
            # 1 - s m(s) ~ 1/s^2 rounds to 0 or below from s ~ 1e8 up, where psi = 0
            area = 0.5 * g * np.maximum((1.0 - s * mills) @ weights, 0.0)
            with np.errstate(over="ignore"):    # a past 1e154: phi(a + g) = 0
                log_phi = -0.5 * (a + g) ** 2 - 0.5 * math.log(2.0 * math.pi)
            with np.errstate(divide="ignore"):  # psi = 0 where the area is
                log_psi = np.where(mid, log_phi + np.log(area), log_psi)
        return log_psi

    def neg_log_psi(self, t):
        log_psi = self._log_psi(t)
        # the slope e^-t Phi(d1) / psi passes doubles where psi underflows, and is
        # nan where Phi(d1) does too, t / gamma past doubles among them
        with np.errstate(over="ignore", invalid="ignore"):
            return -log_psi, np.exp(log_ndtr(self.gamma / 2.0 - t / self.gamma) - t - log_psi)

    def draw_log_w(self, rng, shape):
        return self.gamma * np.maximum(rng.standard_normal(shape) - self.gamma / 2.0, self._z_lo)


# Requested accuracy of every density-family integral (absolute below 1), and
# the absolute tolerance that leaves only the relative one.
_QUAD_TOL = 1e-12
_TINY = np.finfo(float).tiny


def _integrate(h, lo, hi, knots=(), atol=0.1 * _QUAD_TOL, center=0.0):
    """The integrals of h(u) and (u - center) h(u) over [lo, hi] (arrays of
    bounds in [0, 1]), stacked on a new first axis, by one scipy tanh-sinh
    call (Takahasi and Mori, 1974), each range cut at the ``knots`` inside it.
    ``atol=_TINY`` asks for relative accuracy alone, which tiny integrals need.

    tanhsinh is asked for a decade more than _QUAD_TOL: its error estimate is
    not a bound, and at _QUAD_TOL itself it let a 1e-11 error through.
    AccuracyError carries the first integral whose estimate misses _QUAD_TOL.
    """
    # imported on first use: only the density families integrate, and
    # scipy.integrate would add about 0.35 s to every CLI start
    from scipy.integrate import tanhsinh

    lo, hi = np.broadcast_arrays(lo, hi)
    inner = np.clip(np.reshape(knots, (-1,) + (1,) * lo.ndim), lo, hi)
    edges = np.concatenate([lo[None], inner, hi[None]])
    power = np.reshape([0.0, 1.0], (2,) + (1,) * edges.ndim)
    res = tanhsinh(lambda u, k, c: (u - c) ** k * h(u), edges[:-1], edges[1:],
                   args=(power, center), atol=atol, rtol=0.1 * _QUAD_TOL)
    # tanhsinh gives NaN on a piece with no float strictly inside it (a bound
    # within an ulp of a knot or of 1), whose integral is below an ulp of h
    empty = np.nextafter(edges[:-1], np.inf) >= edges[1:]
    val = np.where(empty, 0.0, res.integral).sum(axis=1)
    err = np.where(empty, 0.0, res.error).sum(axis=1)
    miss = ~(err <= _QUAD_TOL * np.maximum(1.0, np.abs(val)))
    if miss.any():
        i = np.unravel_index(np.argmax(miss), miss.shape)
        raise AccuracyError(
            f"tanhsinh on [{lo[i[1:]]}, {hi[i[1:]]}]: error estimate {err[i]:.3g} "
            f"misses tol {_QUAD_TOL}", best=float(val[i]))
    return val


# The W table: log w from -16 (below, P(W <= w) is h(1) w to 1e-7 of itself) in
# steps of 4 to where the logit of P(W <= w) passes 38, beyond every uniform
# double (the logit of 2^-53 is -36.7).
_LOG_W_GRID = np.arange(-16.0, 41.0, 4.0)
_LOGIT_TOP = 38.0


class DensityFamily(ExponentMeasure):
    """Exponent measure from a spectral density h on [0, 1], a numpy function
    of an array that is smooth but at the ``knots``.

    Requires total mass 2 and first moment 1 (checked at construction):
    V(x,y) = int max(w/x, (1-w)/y) h(w) dw.  With the cumulative moments H0(s)
    = int_0^s h and H1(s) = int_0^s u h(u) du at s = 1/(1+w), U = 1/(1 + W)
    has density u h(u), so P(W > w) = H1, and psi(w) = (s H0 - H1)/(1 - s).
    These are integrated only to build two tables in t = log w, the logit of
    P(W <= w) and -log psi, which the draw reads backwards and the cdf both.
    """

    name = "density_family"

    def __init__(self, h, knots=()):
        self.h = h
        self.knots = knots
        self.log_w_knots = tuple(math.log((1.0 - k) / k) for k in knots if 0.0 < k < 1.0)
        mass, mean = _integrate(h, 0.0, 1.0, self.knots)
        if abs(mass - 2.0) > 1e-8:
            raise ValidationError(f"density mass {mass} != 2 (tol 1e-8)")
        if abs(mean - 1.0) > 1e-8:
            raise ValidationError(f"density first moment {mean} != 1 (tol 1e-8)")

    def _moments(self, w):
        """s = 1/(1 + w), H1 = P(W > w), 1 - H1, s H0 - H1 and H0 - H1, none
        a difference of near equals: from the mass m and the moment c about s
        of h over [0, s] where s <= 1/2, else over [s, 1] (so that the
        integrator meets the density's behaviour at 0 and 1, a cusp, a jump
        or an integrable pole, only at an end of its range).  Those over
        [0, s] are accurate to their own size, in a call of their own."""
        w = np.asarray(w, dtype=float)
        s = 1.0 / (1.0 + w)
        r, low = w * s, s <= 0.5                # r = 1 - s
        lo, hi = np.where(low, 0.0, s), np.where(low, s, 1.0)
        mc = np.empty((2,) + s.shape)
        for side, atol in ((low, _TINY), (~low, 0.1 * _QUAD_TOL)):
            if side.any():
                mc[:, side] = _integrate(self.h, lo[side], hi[side], self.knots, atol, s[side])
        m, c = mc
        q = s * m + c
        return (s, np.where(low, q, 1.0 - q), np.where(low, 1.0 - q, q),
                np.where(low, -c, s - r + c), np.where(low, r * m - c, 1.0 - r * m + c))

    def unit_terms(self, w):
        t = np.log(w)
        neg_log_psi = np.maximum(self.r_table.forward(t), -709.0)    # the cdf is 1 beyond
        return -expit(self._w_table.forward(t)), -np.exp(-neg_log_psi)

    def neg_log_psi(self, t):
        # the slope is (H0 - H1) s / (s H0 - H1)
        w = np.exp(t)
        s, _, _, k, lower = self._moments(w)
        with np.errstate(divide="ignore", invalid="ignore"):
            return t - np.log1p(w) - np.log(k), lower * s / k

    @functools.cached_property
    def _w_table(self):
        def logit(t):
            # its slope (the density of U at s times -ds/dt = w s^2 over P(W <=
            # w) P(W > w), infinite with it where P(W > w) underflows, beyond
            # the table) and the weight of a unit of it in P(W <= w)
            w = np.exp(t)
            s, above, below, _, _ = self._moments(w)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return (np.log(below / above), w * s ** 3 * self.h(s) / (above * below),
                        above * below)

        return numerics.inverse_table(logit, np.union1d(_LOG_W_GRID, self.log_w_knots),
                                      _TABLE_TOL, (-_LOGIT_TOP, _LOGIT_TOP))

    def draw_log_w(self, rng, shape):
        p = margins.nonzero_draws(rng.uniform, shape)
        return self._w_table(np.log(p) - np.log1p(-p))


def density_constant():
    """The flat spectral density h = 2."""
    return DensityFamily(lambda w: 2.0)


def density_logistic(gamma):
    """Spectral density of the symmetric logistic model with parameter gamma.

    Restricted to gamma <= 1/2 where the density stays bounded at the
    endpoints (the closed-form kernels cover the full range), and to gamma >=
    0.01: as gamma -> 0 the mass gathers at w = 1/2 in a peak too narrow for
    the quadrature.
    """
    if not 0.01 <= gamma <= 0.5:
        raise ValidationError("logistic density helper needs gamma in [0.01, 1/2]")
    g = gamma

    def h(w):
        # (1/g - 1) (w(1-w))^(-1-1/g) (w^(-1/g) + (1-w)^(-1/g))^(g-2) in terms
        # of v = min(w, 1-w) <= V: no power overflows, and 0 and 1 give limits
        v, V = np.minimum(w, 1.0 - w), np.maximum(w, 1.0 - w)
        return (1.0 / g - 1.0) * V ** (-1.0 - 1.0 / g) * v ** (1.0 / g - 2.0) \
            * (1.0 + (v / V) ** (1.0 / g)) ** (g - 2.0)

    return DensityFamily(h)


def _bump_density(a, b):
    """Quartic bump on [a, b]: mass-normalised later, mean (a+b)/2."""
    def g(w):
        return (np.maximum(w - a, 0.0) * np.maximum(b - w, 0.0)) ** 2
    g0 = (b - a) ** 5 / 30.0
    return g, g0


def density_power_decay(s):
    """Density with exact decay h(w) ~ kappa * w**s as w -> 0, s > -1.

    kappa and the bump weight are solved from the two moment constraints; the
    bump sits on [a, b] strictly inside (0, 1) with mean below 1/2 (the power
    part alone has mean (s+1)/(s+2) > 1/2), leaving the decay at 0 untouched.
    """
    if s <= -1.0:
        raise ValidationError("power decay exponent must exceed -1")
    a, b = 0.05, 0.55
    m0, m1 = 1.0 / (s + 1.0), 1.0 / (s + 2.0)
    g, g0 = _bump_density(a, b)
    gm = 0.5 * (a + b)
    det = m0 * g0 * gm - m1 * g0
    kappa = (2.0 * g0 * gm - g0) / det
    c2 = (2.0 - kappa * m0) / g0
    if kappa <= 0.0 or c2 < 0.0:
        raise ValidationError(f"no valid density for s={s} with bump [{a}, {b}]")

    fam = DensityFamily(lambda w: kappa * w ** s + c2 * g(w), knots=(a, b))
    fam.decay_kappa, fam.decay_s = kappa, s
    return fam


def density_exp_decay(delta, gamma, kappa):
    """Density with exact decay h(w) ~ w**delta * exp(-kappa w**-gamma) as w -> 0.

    The decay term enters with coefficient one; a quartic bump away from the
    origin, from a = 0.15, absorbs the two moment constraints.
    """
    if gamma <= 0.0 or kappa <= 0.0:
        raise ValidationError("exp decay needs gamma > 0 and kappa > 0")

    # below w_lo, w^-gamma or kappa w^-gamma would pass e^700: there kappa
    # w^-gamma is the exp of its log, held at 709 (where exp(-it) is 0)
    log_kappa = math.log(kappa)
    w_lo = math.exp((max(log_kappa, 0.0) - 700.0) / gamma)
    cap = (709.0 - log_kappa) / gamma

    def core(w):
        deep = np.exp(log_kappa + gamma * np.minimum(-np.log(w), cap))
        decay = np.where(w > w_lo, kappa * np.maximum(w, w_lo) ** -gamma, deep)
        return w ** delta * np.exp(-decay)

    a = 0.15
    m0, m1 = _integrate(core, 0.0, 1.0)
    target = (1.0 - m1) / (2.0 - m0)
    b = 2.0 * target - a
    if not a < b <= 1.0:
        raise ValidationError(
            f"bump mean {target} infeasible with left edge {a}")
    g, g0 = _bump_density(a, b)
    c2 = (2.0 - m0) / g0
    return DensityFamily(lambda w: core(w) + c2 * g(w), knots=(a, b))


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

_FLOOR = 1e-12      # smallest draw above the support floor


# The logistic pair shares one conditional tail, z^{-m} exp(c (1 - z)) with
# m = (1 - gamma)/gamma and z = e^zeta >= 1: the survival function of the
# inverted kernel (c = x) and the CDF of the BEV kernel (c = 1/x_F, x_F the
# Frechet state).  Both directions work with L = -log(tail), and c enters
# through log c, which stays finite where 1/x_F underflows.

def _logistic_L(zeta, log_c, m):
    """L = m zeta + c expm1(zeta) with c = exp(log_c)."""
    with np.errstate(over="ignore"):
        return m * zeta - np.exp(log_c + zeta) * np.expm1(-zeta)


# Bound on the ulp walk in _logistic_zeta; from the Newton step it has taken
# at most ~20 passes.
_ZETA_WALK_PASSES = 64


def _logistic_zeta(L, log_c, m):
    """The root zeta >= 0 of m zeta + c expm1(zeta) = L, exact via Wright omega.

    zeta = b - omega(b + log(c/m)) with b = (c + L)/m.  Where omega is close
    to b the same root is log(omega) - log(c/m), free of the cancellation,
    and below 1e-8 it is L/(m + c) to double precision.  One Newton step on
    the residual then brings L back to a few ulps.

    Last, zeta moves to the largest float whose rounded ``_logistic_L`` does
    not exceed L.  The rounded ``_logistic_L`` is nondecreasing in zeta (two
    positive increasing terms), so that float is nondecreasing in L, and the
    quantiles built on it are monotone in u to the last bit.
    """
    c = np.exp(log_c)
    log_cm = log_c - math.log(m)
    b = (c + L) / m
    w = wrightomega(b + log_cm)
    with np.errstate(divide="ignore"):
        zeta = np.where(w < 0.5 * b, b - w, np.log(w) - log_cm)
    linear = L / (m + c)
    zeta = np.maximum(np.where(linear < 1e-8, linear, zeta), 0.0)
    slope = m + np.exp(log_c + zeta)
    zeta = np.maximum(zeta - (_logistic_L(zeta, log_c, m) - L) / slope, 0.0)

    shape = np.broadcast(zeta, L, log_c).shape
    z, L, log_c = (np.array(np.broadcast_to(a, shape), dtype=float).reshape(-1)
                   for a in (zeta, L, log_c))
    down = np.flatnonzero(_logistic_L(z, log_c, m) > L)
    up = np.arange(z.size)
    for _ in range(_ZETA_WALK_PASSES):
        z[down] = np.nextafter(z[down], -np.inf)
        down = down[_logistic_L(z[down], log_c[down], m) > L[down]]
        if not down.size:
            break
    for _ in range(_ZETA_WALK_PASSES):
        step = np.nextafter(z[up], np.inf)
        ok = _logistic_L(step, log_c[up], m) <= L[up]
        up = up[ok]
        z[up] = step[ok]
        if not up.size:
            break
    return z.reshape(shape)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _conditional_cdf(cdf):
    """Wrap a kernel's ``cdf(self, x, y)``, written for y above the support
    floor, in the shared contract: the state check, 0 at and below the
    floor, and values clipped to [0, 1]."""
    @functools.wraps(cdf)
    def checked(self, x, y):
        x = self._check_x(x)
        y = np.asarray(y, dtype=float)
        lo = self.support_lo
        below = y <= lo
        val = cdf(self, x, np.where(below, lo + 1.0, y))
        return np.where(below, 0.0, np.clip(val, 0.0, 1.0))
    return checked


class _Kernel:
    """Each kernel states its ``stationary_law`` and writes its formulas:
    ``cdf`` under ``_conditional_cdf``, and either a closed-form ``ppf``,
    through which the default ``_draw`` maps one uniform per state, or its
    own ``_draw``."""

    stationary_law = margins.EXPONENTIAL
    ht_alpha_beta = None

    @property
    def support_lo(self):
        return self.stationary_law.support[0]

    def _check_x(self, x):
        """``x`` as a float array, once every state is finite and above the
        support floor; NaN fails both comparisons."""
        x = np.asarray(x, dtype=float)
        bad = ~((x > self.support_lo) & (x < np.inf))
        if bad.any():
            v = x[bad][0]
            if not np.isfinite(v):
                raise DomainError(f"{self.name}: conditioning state must be "
                                  f"finite; got {v}")
            raise DomainError(f"{self.name}: conditioning state must exceed "
                              f"the support floor {self.support_lo}; got {v}")
        return x

    def _check_u(self, u):
        """``u`` as a float array, once every value lies in [0, 1), where
        every ``ppf`` is defined; NaN fails both comparisons."""
        u = np.asarray(u, dtype=float)
        bad = ~((u >= 0.0) & (u < 1.0))
        if bad.any():
            raise DomainError(f"{self.name}: uniform u must lie in [0, 1); "
                              f"got {u[bad][0]}")
        return u

    def cdf(self, x, y):
        raise NotImplementedError

    def sample(self, x, rng):
        """One draw per state; a scalar state gives a float."""
        x = self._check_x(x)
        y = self._draw(x, rng)
        return float(y) if x.ndim == 0 else y

    def _draw(self, x, rng):
        return self.ppf(x, rng.uniform(size=x.shape))


class GaussianCopulaKernel(_Kernel):
    """Markov kernel from a bivariate Gaussian copula on a chosen margin."""

    def __init__(self, rho, margin="exponential"):
        if not -1.0 < rho < 1.0 or rho == 0.0:
            raise ValidationError("rho must lie in (-1, 1) and be nonzero")
        self.rho = float(rho)
        laws = {law.name: law for law in (margins.EXPONENTIAL, margins.LAPLACE,
                                          margins.GAUSSIAN)}
        if margin not in laws:
            raise ValidationError(f"unknown margin '{margin}'")
        self.stationary_law = laws[margin]
        self.name = f"gaussian_copula(rho={rho}, {margin})"
        if rho > 0.0:
            self.ht_alpha_beta = (rho, 0.0) if margin == "gaussian" else (rho * rho, 0.5)

    def _to_z(self, x):
        return margins.transform(x, self.stationary_law, margins.GAUSSIAN)

    def _from_z(self, z):
        return margins.transform(z, margins.GAUSSIAN, self.stationary_law)

    @_conditional_cdf
    def cdf(self, x, y):
        zx = self._to_z(x)
        return ndtr((self._to_z(y) - self.rho * zx) / math.sqrt(1.0 - self.rho ** 2))

    def _draw(self, x, rng):
        z = self.rho * self._to_z(x) \
            + math.sqrt(1.0 - self.rho ** 2) * rng.standard_normal(x.shape)
        return self._from_z(z)


class _LogisticPairKernel(_Kernel):
    """Shared closed form of the BEV logistic kernel and its inversion.

    With d the log ratio of the two states (on the scale each kernel names),
    zeta = gamma log(1 + e^{d/gamma}) and d = gamma log(expm1(zeta/gamma)).
    """

    kernel_id = None

    def __init__(self, gamma):
        if not (0.0 < gamma < 1.0 and 1.0 / gamma < math.inf):
            raise ValidationError("gamma must lie in (0, 1), with 1/gamma finite")
        self.gamma = float(gamma)
        self._m = (1.0 - self.gamma) / self.gamma
        self.name = f"{self.kernel_id}(gamma={gamma})"

    def _zeta(self, d):
        g = self.gamma
        return g * np.logaddexp(0.0, d / g)

    def _d(self, zeta):
        t = zeta / self.gamma
        return self.gamma * (t + margins.log1mexp(t))


class BevLogisticKernel(_LogisticPairKernel):
    """Bivariate extreme-value copula with logistic dependence, exponential
    margins; asymptotically dependent with canonical indices (1, 0)."""

    kernel_id = "bev_logistic"
    ht_alpha_beta = (1.0, 0.0)

    @_conditional_cdf
    def cdf(self, x, y):
        log_xf = margins.transform(x, self.stationary_law, margins.GUMBEL)
        log_yf = margins.transform(y, self.stationary_law, margins.GUMBEL)
        return np.exp(-_logistic_L(self._zeta(log_xf - log_yf), -log_xf, self._m))

    def ppf(self, x, u):
        log_xf = margins.transform(self._check_x(x), self.stationary_law, margins.GUMBEL)
        u = self._check_u(u)
        pos = u > 0.0
        zeta = _logistic_zeta(-np.log(np.where(pos, u, 0.5)), -log_xf, self._m)
        y = margins.transform(log_xf - self._d(zeta), margins.GUMBEL, self.stationary_law)
        return np.where(pos, np.maximum(y, _FLOOR), _FLOOR)


class InvertedBevLogisticKernel(_LogisticPairKernel):
    """Inverted BEV logistic copula on exponential margins; asymptotically
    independent with canonical indices (0, 1 - gamma)."""

    kernel_id = "inverted_bev_logistic"

    def __init__(self, gamma):
        super().__init__(gamma)
        self.ht_alpha_beta = (0.0, 1.0 - self.gamma)

    @_conditional_cdf
    def cdf(self, x, y):
        log_x = np.log(x)
        return -np.expm1(-_logistic_L(self._zeta(np.log(y) - log_x), log_x, self._m))

    def ppf(self, x, u):
        log_x = np.log(self._check_x(x))
        L = -np.log1p(-self._check_u(u))
        y = np.exp(log_x + self._d(_logistic_zeta(L, log_x, self._m)))
        return np.maximum(y, _FLOOR)


class AsymmetricLogisticKernel(_LogisticPairKernel):
    """BEV copula with asymmetric logistic dependence, exponential margins.

    Mixes an extreme-following mode (weight phi1) with a return-to-body mode,
    so the one-step limit law has an atom at -infinity of mass 1 - phi1 under
    the identity norming.  On Frechet margins the pair is (max(X1, X2),
    max(Y1, Y2)) (Tawn, 1988): X1 and Y1 independent with scales 1 - phi1 and
    1 - phi2, and (X2/phi1, Y2/phi2) the logistic pair at gamma = nu; given
    X = x, X1 attains x with probability 1 - phi1.
    """

    kernel_id = "asymmetric_logistic"

    def __init__(self, phi1, phi2, nu):
        for nm, val in (("phi1", phi1), ("phi2", phi2), ("nu", nu)):
            if not 0.0 < val < 1.0:
                raise ValidationError(f"{nm} must lie in (0, 1)")
        if not (phi2 / phi1 < math.inf and 1.0 / nu < math.inf):
            raise ValidationError(f"phi2/phi1 or 1/nu overflows at phi1 = {phi1}, nu = {nu}")
        super().__init__(nu)
        self.phi1, self.phi2 = float(phi1), float(phi2)
        self.nu = self.gamma
        self.name = f"asymmetric_logistic({phi1}, {phi2}, {nu})"

    def _g(self, x):
        """g = log(x_F/phi1), the Gumbel state of X2/phi1 at X = x."""
        return margins.transform(x, self.stationary_law, margins.GUMBEL) - math.log(self.phi1)

    @_conditional_cdf
    def cdf(self, x, y):
        # with h = log(y_F/phi2) and zeta = _zeta(g - h), the cdf is
        # [(1 - phi1) + phi1 e^{-m zeta}] exp(-e^{zeta - g}(1 - e^{-zeta}) - (1 - phi2)/y_F);
        # zeta - g is formed as q - min(g, h), exact beyond x ~ 709
        g, log_yf = self._g(x), margins.transform(y, self.stationary_law, margins.GUMBEL)
        h = log_yf - math.log(self.phi2)
        q = self.nu * np.log1p(np.exp(-np.abs(g - h) / self.nu))
        zeta = np.maximum(g - h, 0.0) + q
        expo = np.exp(q - np.minimum(g, h)) * -np.expm1(-zeta) \
            + (1.0 - self.phi2) * np.exp(-log_yf)
        return ((1.0 - self.phi1) + self.phi1 * np.exp(-self._m * zeta)) * np.exp(-expo)

    def _draw(self, x, rng):
        # Where X1 attains x, e^zeta = 1 + E e^g (Y2 given X2 < x); elsewhere the BEV
        # logistic draw at g.  Then log(Y2/phi2) = g - _d(zeta) and Y1 = (1 - phi2)/E1.
        g = np.broadcast_to(self._g(x), x.shape)
        x1 = rng.uniform(size=x.shape) >= self.phi1
        E, E1 = (margins.nonzero_draws(rng.exponential, x.shape) for _ in range(2))
        zeta = np.logaddexp(0.0, np.log(E) + g, out=np.empty(x.shape))
        zeta[~x1] = _logistic_zeta(E[~x1], -g[~x1], self._m)
        log_yf = np.maximum(math.log(self.phi2) + g - self._d(zeta),
                            math.log(1.0 - self.phi2) - np.log(E1))
        return np.maximum(margins.transform(log_yf, margins.GUMBEL, self.stationary_law), _FLOOR)


class InvertedMaxStableKernel(_Kernel):
    """Inverted max-stable copula kernel on exponential margins.

    cdf(x, y) = 1 + V_1(1, x/y) exp(x - x V(1, x/y)), evaluated through the
    cancellation-safe 1 - V of ``unit_terms`` so states 30+ units out stay exact.

    Given X = x, Y = x / max(W, R) (Dombry, Eyi-Minko and Ribatet, 2013), W
    and R independent with laws free of x: P(W <= w) = -V_1(1, w), drawn by
    the exponent measure, and P(R <= r) = exp(-x psi(r)), psi(r) = V(1, r) -
    1, so R = psi^-1(E/x) for a unit exponential E, from the exponent
    measure's R table, and beyond it from its end lines.
    """

    def __init__(self, exponent):
        if not isinstance(exponent, ExponentMeasure):
            raise ValidationError("exponent must be an ExponentMeasure")
        self.exponent = exponent
        self.name = f"inverted_max_stable({exponent.name})"

    @_conditional_cdf
    def cdf(self, x, y):
        v1, one_minus_v = self.exponent.unit_terms(x / y)
        with np.errstate(over="ignore"):
            return 1.0 + v1 * np.exp(x * one_minus_v)

    def _draw(self, x, rng):
        log_w = self.exponent.draw_log_w(rng, x.shape)
        e = margins.nonzero_draws(rng.exponential, x.shape)
        log_r = self.exponent.r_table(np.log(x) - np.log(e))
        return np.maximum(x * np.exp(-np.maximum(log_w, log_r)), _FLOOR)


class ExpARKernel(_Kernel):
    """Exponential autoregression S' = phi S + E, with constant slowly varying norming, on
    margins Y = Lambda(S) (numerics.ExpARLaw): ``1 - exp(-[L^-1(y) - phi L^-1(x)]_+)``."""

    def __init__(self, phi):
        self.law = numerics.ExpARLaw(phi)
        self.phi = float(phi)
        self.name = f"expar(phi={phi})"
        self.ht_alpha_beta = (phi, 0.0)

    @_conditional_cdf
    def cdf(self, x, y):
        s = self.law.inverse_cumhaz
        return -np.expm1(-np.maximum(s(y) - self.phi * s(x), 0.0))

    def _draw(self, x, rng):
        law = self.law
        return law.cumhaz(self.phi * law.inverse_cumhaz(x) + rng.exponential(size=x.shape))


class HtMixtureKernel(_Kernel):
    """Mixture of two canonical-family kernels with alpha_1 > alpha_2."""

    def __init__(self, lam, k1, k2):
        if not 0.0 < lam < 1.0:
            raise ValidationError("lambda must lie in (0, 1)")
        for k in (k1, k2):
            if k.ht_alpha_beta is None:
                raise ValidationError(
                    "mixture components must carry canonical (alpha, beta) indices")
            if k.stationary_law is not margins.EXPONENTIAL:
                raise ValidationError("mixture components must live on the exponential scale")
        (a1, b1), (a2, b2) = k1.ht_alpha_beta, k2.ht_alpha_beta
        if not a1 > a2:
            raise ValidationError(f"mixture needs alpha1 > alpha2, got {a1} <= {a2}")
        self.lam, self.k1, self.k2 = float(lam), k1, k2
        self.alpha1, self.beta1, self.alpha2, self.beta2 = a1, b1, a2, b2
        self.name = f"ht_mixture(lam={lam}, {k1.name}, {k2.name})"

    @_conditional_cdf
    def cdf(self, x, y):
        return self.lam * self.k1.cdf(x, y) + (1.0 - self.lam) * self.k2.cdf(x, y)

    def _draw(self, x, rng):
        pick1 = rng.uniform(size=x.shape) < self.lam
        out = np.empty_like(x)
        if pick1.any():
            out[pick1] = self.k1.sample(x[pick1], rng)
        if (~pick1).any():
            out[~pick1] = self.k2.sample(x[~pick1], rng)
        return out


class RootzenSmithKernel(_Kernel):
    """Tail-switching chain on Laplace margins: flip sign or draw fresh."""

    stationary_law = margins.LAPLACE

    def __init__(self, p_flip=0.5):
        if not 0.0 < p_flip < 1.0:
            raise ValidationError("flip probability must lie in (0, 1)")
        self.p_flip = float(p_flip)
        self.name = "rootzen_smith"

    @_conditional_cdf
    def cdf(self, x, y):
        return self.p_flip * (y >= -x) + (1.0 - self.p_flip) * margins.LAPLACE.cdf(y)

    def _draw(self, x, rng):
        flip = rng.uniform(size=x.shape) < self.p_flip
        fresh = margins.LAPLACE.ppf(margins.nonzero_draws(rng.uniform, x.shape))
        return np.where(flip, -x, fresh)


# the smallest theta1 whose stationary law numerics.arch_stationary_fit can solve
_ARCH_THETA1_MIN = 0.038


class ArchLaplaceKernel(_Kernel):
    """Squared-volatility recursion Y' = sqrt(theta0 + theta1 Y^2) W on
    standard Laplace margins, through the stationary law of Y that
    :func:`numerics.arch_stationary_fit` solves, carried as log|Y| = log
    Lambda^-1(|x|), Lambda(s) = -log P(|Y| > s), so that every finite Laplace
    state x draws.  Beyond |x| ~ 1e16 a step's O(kappa) spread is below an
    ulp of x: draws round to +-x, and log|Y| no longer resolves 1/2 log theta1,
    so cdf(x, x) is Phi(1) for Phi(theta1^-1/2); every other y gives 0 or 1."""

    stationary_law = margins.LAPLACE

    def __init__(self, theta0, theta1):
        if theta0 <= 0.0:
            raise ValidationError("theta0 must be positive")
        if not _ARCH_THETA1_MIN <= theta1 < 1.0:
            raise ValidationError(f"theta1 must lie in [{_ARCH_THETA1_MIN}, 1): below it "
                                  "P(|Y| > 1e5 sqrt(theta0)) underflows doubles")
        self.theta0 = float(theta0)
        self.theta1 = float(theta1)
        self.law = numerics.arch_stationary_fit(theta0, theta1)
        self.name = f"arch_laplace(theta0={theta0}, theta1={theta1})"

    def _log_state(self, x):
        """log|Y| of Laplace state x: -inf at 0, finite at every finite x."""
        return self.law.log_inverse_cumhaz(np.abs(x))

    def _log_volatility(self, x):
        # log sigma, sigma^2 = theta0 + theta1 Y^2
        return 0.5 * np.logaddexp(math.log(self.theta0),
                                  math.log(self.theta1) + 2.0 * self._log_state(x))

    @_conditional_cdf
    def cdf(self, x, y):
        # ndtr is exactly 0 or 1 beyond |z| = e^4, so the ratio stops there
        ratio = np.exp(np.minimum(self._log_state(y) - self._log_volatility(x), 4.0))
        return ndtr(np.copysign(ratio, y))

    def _draw(self, x, rng):
        w = rng.standard_normal(x.shape)
        log_w = np.log(np.abs(w), where=w != 0.0, out=np.full(x.shape, -np.inf))
        return np.copysign(self.law.cumhaz_at_log(self._log_volatility(x) + log_w), w)


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

_EXPONENT_FAMILIES = {
    "husler_reiss": HuslerReiss,
    "logistic": density_logistic,
    "constant": density_constant,
    "power_decay": density_power_decay,
    "exp_decay": density_exp_decay,
}


def _build_inverted_max_stable(family="husler_reiss", **params):
    return InvertedMaxStableKernel(
        build(_EXPONENT_FAMILIES, "exponent family", family, params))


def _build_ht_mixture(lam, k1: dict, k2: dict):
    return HtMixtureKernel(lam, from_spec(make_kernel, k1, "mixture component"),
                           from_spec(make_kernel, k2, "mixture component"))


_KERNEL_BUILDERS = {
    "gaussian_copula": GaussianCopulaKernel,
    "bev_logistic": BevLogisticKernel,
    "inverted_bev_logistic": InvertedBevLogisticKernel,
    "asymmetric_logistic": AsymmetricLogisticKernel,
    "inverted_max_stable": _build_inverted_max_stable,
    "expar": ExpARKernel,
    "ht_mixture": _build_ht_mixture,
    "rootzen_smith": RootzenSmithKernel,
    "arch_laplace": ArchLaplaceKernel,
}

KERNEL_IDS = tuple(sorted(_KERNEL_BUILDERS))


def make_kernel(kernel_id, **params):
    """Construct a validated kernel from its catalogue id and parameters."""
    return build(_KERNEL_BUILDERS, "kernel", kernel_id, params)
