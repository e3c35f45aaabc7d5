"""Independent oracles used by the tests.

These deliberately avoid the package's own code paths: the normal quantile
comes from bisecting math.erf, deep Gaussian scores are roots of mpmath's
erfc, the tail-index oracles are a Hill estimator on
freshly simulated states and the root of the moment equation in mpmath, the
exponential-autoregression law is its alternating series summed in mpmath,
the Gumbel value of an exponential state and its inverse are evaluated in
mpmath, the spectral-density moments are mpmath quadratures of the densities
rebuilt from their definitions, the brute-force simulators and change-point
rules below are written directly against the defining recursions, one path at
a time, and the update-function quotients are formed from a scheme's norming
at a finite threshold.  The norming forms that the package replaced by one
implementation (the alternating Gaussian scheme as its own class, the power
forms of the logistic laws and the normal forms of the ARCH innovation laws)
are kept as references next to the laws in mpmath.  The exceptions read a
kernel's own formulas: ``root_ppf``, the reference inverse of a kernel whose
draw is not a quantile, finds the root of the kernel's ``cdf`` with scipy's
root finders, and ``exponent_V`` and ``exponent_V1`` give an exponent
measure's V and V_1 from its unit terms by homogeneity.
"""

import itertools
import math

import mpmath
import numpy as np

from extreme_chains import kernels

EULER_GAMMA = 0.5772156649015329


def norm_quantile(p, tol_iters=200):
    """Standard normal quantile by bisection of math.erf."""
    lo, hi = -12.0, 12.0
    for _ in range(tol_iters):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gaussian_score_mp(log_tail, dps=60):
    """The standard normal score z >= 0 with P(Z > z) = exp(log_tail), for a
    ``log_tail`` <= -log 2 given as a float or an mpmath number: the root of
    log(erfc(z / sqrt 2) / 2) = log_tail in mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        target = mpmath.mpf(log_tail)
        root2 = mpmath.sqrt(2)
        return float(mpmath.findroot(
            lambda z: mpmath.log(mpmath.erfc(z / root2) / 2) - target,
            mpmath.sqrt(-2 * target)))


def gumbel_from_exponential_mp(x, dps=80):
    """g = -log(-log(1 - e^{-x})), the Gumbel value with the same tail
    probability as the exponential state ``x``, in mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        return float(-mpmath.log(-mpmath.log1p(-mpmath.exp(-mpmath.mpf(x)))))


def exponential_from_gumbel_mp(g, dps=80):
    """x = -log(1 - exp(-e^{-g})), the inverse of ``gumbel_from_exponential_mp``."""
    with mpmath.workdps(dps):
        return float(-mpmath.log(-mpmath.expm1(-mpmath.exp(-mpmath.mpf(g)))))


def _spectral_density_mp(family, params):
    """A spectral density of ``kernels`` rebuilt in mpmath from its definition,
    with the points where it is not smooth: the logistic density, or the power
    or exponential decay at 0 plus the quartic bump on [a, b] that meets the
    mass-2, mean-1 constraints."""
    mpf = mpmath.mpf
    if family == "logistic":
        (g,) = map(mpf, params)
        return (lambda w: (1 / g - 1) * (w * (1 - w)) ** (-1 - 1 / g)
                * (w ** (-1 / g) + (1 - w) ** (-1 / g)) ** (g - 2)), ()
    if family == "power_decay":
        (s,) = map(mpf, params)
        a, b = mpf(0.05), mpf(0.55)
        g0, gm = (b - a) ** 5 / 30, (a + b) / 2
        m0, m1 = 1 / (s + 1), 1 / (s + 2)
        kappa = (2 * g0 * gm - g0) / (m0 * g0 * gm - m1 * g0)
        core, c2 = (lambda w: kappa * w ** s), (2 - kappa * m0) / g0
    else:
        delta, gamma, kappa = map(mpf, params)
        a = mpf(0.15)

        def core(w):
            return w ** delta * mpmath.exp(-kappa * w ** -gamma)

        m0 = mpmath.quad(core, [0, 1])
        m1 = mpmath.quad(lambda w: w * core(w), [0, 1])
        b = 2 * (1 - m1) / (2 - m0) - a
        c2 = (2 - m0) / ((b - a) ** 5 / 30)

    def h(w):
        return core(w) + (c2 * (w - a) ** 2 * (b - w) ** 2 if a < w < b else 0)

    return h, (a, b)


def density_moments_mp(family, params, ws, dps=30):
    """(H0, H1) at s = 1/(1 + w) for each w of ``ws``, H0(s) = int_0^s h and
    H1(s) = int_0^s u h(u) du, for the spectral density ``family`` of
    ``kernels`` with ``params``: mpmath.quad over [0, s] at ``dps`` digits,
    split at the density's edges."""
    with mpmath.workdps(dps):
        h, knots = _spectral_density_mp(family, params)
        out = []
        for w in ws:
            s = 1 / (1 + mpmath.mpf(w))
            pts = [0, *(k for k in knots if k < s), s]
            out.append((float(mpmath.quad(h, pts)),
                        float(mpmath.quad(lambda u: u * h(u), pts))))
    return np.array(out).T


def dkw_bound(n, alpha=0.01):
    """Two-sided DKW confidence radius for an empirical CDF."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def ks_statistic(sample, cdf):
    s = np.sort(np.asarray(sample, dtype=float))
    n = s.size
    F = np.asarray(cdf(s), dtype=float)
    return float(max(np.max(np.abs(F - np.arange(1, n + 1) / n)),
                     np.max(np.abs(F - np.arange(0, n) / n))))


class ZerosFirst:
    """A seeded generator whose first call of ``method`` after ``skip`` calls
    returns zeros, as numpy's ``uniform`` and ``exponential`` do with
    probability about 2^-53 per value; every other call and every other
    method draws as usual."""

    def __init__(self, method, seed=0, skip=0):
        self._rng = np.random.default_rng(seed)
        self._method = method
        self._calls = -skip

    def __getattr__(self, name):
        draw = getattr(self._rng, name)
        if name != self._method:
            return draw

        def first_zeros(size=None):
            self._calls += 1
            return np.zeros(size) if self._calls == 1 else draw(size=size)
        return first_zeros


class RootFindingError(Exception):
    """The reference inverse met a NaN from ``cdf`` or a bracket or root that
    scipy could not find, at the state and uniform its message names."""


def inverse_cdf_sample(cdf, x, u, support_lo):
    """The root of ``cdf(x, y) = u`` in y by scipy's elementwise root finders,
    for a ``cdf`` nondecreasing in y.

    Where ``cdf`` already reaches ``u`` at ``support_lo`` the root is
    ``support_lo``.  Elsewhere ``bracket_root`` grows the bracket x -+ 1
    (never below ``support_lo``) until it holds the root of ``cdf(x, y) -
    u``, and ``find_root`` (Chandrupatla's method) solves to float
    resolution.  A NaN from ``cdf``, or a bracket or root that scipy cannot
    find, raises RootFindingError.
    """
    from scipy.optimize.elementwise import bracket_root, find_root

    x, u = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(u, dtype=float))

    def excess(y, x, u):
        val = cdf(x, y)
        nan = np.isnan(val)
        if nan.any():
            i = int(np.argmax(nan))
            xi, ui = (float(np.broadcast_to(a, nan.shape).flat[i]) for a in (x, u))
            raise RootFindingError(f"cdf returned NaN at x={xi!r}, u={ui!r}")
        return val - u

    def check(res, what, xs, us):
        if not np.all(res.success):
            i = int(np.argmin(res.success))
            raise RootFindingError(f"{what} failed at x={float(xs[i])!r}, u={float(us[i])!r} "
                                   f"(scipy status {int(res.status[i])})")

    y = np.full(x.shape, support_lo)
    free = excess(y, x, u) < 0.0
    xs, us = x[free], u[free]
    found = bracket_root(excess, np.maximum(xs - 1.0, support_lo), xs + 1.0,
                         xmin=support_lo, args=(xs, us))
    check(found, "bracket_root", xs, us)
    root = find_root(excess, found.bracket, args=(xs, us))
    check(root, "find_root", xs, us)
    y[free] = root.x
    return y


def root_ppf(kernel, x, u):
    """The conditional quantile F^{-1}(u | x) of ``kernel``: the root of
    ``kernel.cdf(x, y) = u`` by :func:`inverse_cdf_sample`, above the support
    floor plus ``kernels._FLOOR``, once the kernel's own checks pass every
    state and every u."""
    x, u = np.broadcast_arrays(kernel._check_x(x), kernel._check_u(u))
    return inverse_cdf_sample(kernel.cdf, x, u, kernel.support_lo + kernels._FLOOR)


def exponent_V(em, x, y):
    """V(x, y) = V(1, y/x)/x from ``em.unit_terms``, V(1, w) = 1 - (1 - V(1, w))."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return (1.0 - em.unit_terms(y / x)[1]) / x


def exponent_V1(em, x, y):
    """V_1(x, y) = V_1(1, y/x)/x^2 from ``em.unit_terms``."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return em.unit_terms(y / x)[0] / (x * x)


def symmetric_cdf(cumhaz):
    """The cdf of a law symmetric about 0 from the cumulative hazard of its
    absolute value, Lambda(s) = -log P(|Y| > s): P(Y <= y) is
    exp(-Lambda(|y|)) / 2 below 0 and one less that above."""
    def cdf(y):
        y = np.asarray(y, dtype=float)
        half = 0.5 * np.exp(-cumhaz(np.abs(y)))
        return np.where(y < 0.0, half, 1.0 - half)
    return cdf


def simulate_arch_states(theta0, theta1, n_draws, seed, lanes=50_000, burn=1500):
    """Stationary states of Y' = sqrt(theta0 + theta1 Y^2) W, by direct recursion."""
    rng = np.random.default_rng(seed)
    y = math.sqrt(theta0 / (1.0 - theta1)) * rng.standard_normal(lanes)
    for _ in range(burn):
        y = np.sqrt(theta0 + theta1 * y * y) * rng.standard_normal(lanes)
    out = []
    kept = 0
    while kept < n_draws:
        y = np.sqrt(theta0 + theta1 * y * y) * rng.standard_normal(lanes)
        out.append(y.copy())
        kept += lanes
    return np.concatenate(out)[:n_draws]


def hill_tail_index(sample_abs, k=5000):
    """Hill estimate of the tail index on the top k order statistics."""
    a = np.sort(np.asarray(sample_abs, dtype=float))
    tail = a[a.size - k:]
    return 1.0 / float(np.mean(np.log(tail[1:]) - math.log(tail[0])))


def arch_tail_index_mp(theta1, dps=40):
    """kappa = 2u for the positive root u of (2 theta1)^u Gamma(u + 1/2) =
    sqrt(pi), by bisection in mpmath at ``dps`` digits (theta1 < 1)."""
    with mpmath.workdps(dps):
        log_2t = mpmath.log(2 * mpmath.mpf(theta1))
        half_log_pi = mpmath.log(mpmath.pi) / 2

        def g(u):
            return u * log_2t + mpmath.loggamma(u + mpmath.mpf(0.5)) - half_log_pi

        # g(0) = 0, g(1) = log theta1 < 0 and g is convex: the root lies past 1
        lo, hi = mpmath.mpf(1), mpmath.mpf(2)
        while g(hi) < 0:
            lo, hi = hi, 2 * hi
        while hi - lo > hi * mpmath.mpf(10) ** (5 - dps):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
        return lo + hi                  # 2u at the midpoint


def simulate_centered_expar(phi, n, steps, seed):
    """Direct simulation of V' = phi V + (E - 1); returns the final states."""
    rng = np.random.default_rng(seed)
    v = np.zeros(n)
    for _ in range(steps):
        v = phi * v + rng.exponential(size=n) - 1.0
    return v


def expar_series(phi, s_values):
    """Lambda(s) = -log P(S > s) and P(S <= s), rounded from mpmath, for
    S = sum_k phi^k E_k, by the series P(S > s) = sum_k a_k exp(-s phi^-k),
    a_k = (-1)^k phi^(k(k+1)/2) / ((phi; phi)_k (phi; phi)_inf).

    The terms reach max_k |a_k| while P(S > s) <= 1, so that many digits
    cancel; the sum carries 40 more, and at least 120 for phi >= 0.95.
    """
    log_a, log_top = 0.0, 0.0
    for k in itertools.count(1):
        log_a += k * math.log(phi) - math.log1p(-phi ** k)
        log_top = max(log_top, log_a)
        if log_a < log_top - 50.0:
            break
    log_a0 = -math.fsum(math.log1p(-phi ** j) for j in range(1, 100_000))
    dps = 40 + int((log_a0 + log_top) / math.log(10.0))
    if phi >= 0.95:
        dps = max(dps, 120)
    lam, cdf = [], []
    with mpmath.workdps(dps):
        q = mpmath.mpf(phi)
        a0 = 1 / mpmath.qp(q, q)
        tiny = mpmath.mpf(10) ** -dps
        for s in s_values:
            s = mpmath.mpf(float(s))
            a, rate, sf = a0, mpmath.mpf(1), a0 * mpmath.exp(-s)
            for k in itertools.count(1):
                rate /= q
                a *= -q ** k / (1 - q ** k)
                term = a * mpmath.exp(-s * rate)
                sf += term
                if s * rate > 10 and abs(term) < tiny * abs(sf):
                    break
            lam.append(float(-mpmath.log(sf)))
            cdf.append(float(1 - sf))
    return np.array(lam), np.array(cdf)


def trapezoid_mean_from_cdf(xs, cdf_vals):
    """E[X] = x_min + int (1 - F) for a law supported on [x_min, inf)."""
    return float(xs[0] + np.trapezoid(1.0 - np.asarray(cdf_vals), xs))


def tv_distance(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def update_limit_quotients(scheme, t, v, x):
    """Finite-v quotients whose limits define the update functions.

    Returns (psi_a_hat, psi_b_hat) evaluated at threshold ``v``; compare with
    the scheme's closed-form ``psi_a``/``psi_b`` to witness the convergence.
    """
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    A = scheme.a(t, v) + scheme.b(t, v) * x
    psi_a_hat = (scheme.one_step_a(t, A) - scheme.a(t + 1, v)) / scheme.b(t + 1, v)
    psi_b_hat = scheme.b(1, A) / scheme.b(t + 1, v)
    return psi_a_hat, psi_b_hat


def ratio_threshold_times(c, path):
    """Detection times (1-based) of the alternating ratio rule on one path:
    first X_t <= c X_{t-1}, then X_t > c X_{t-1}, and so on."""
    x = np.asarray(path, dtype=float)
    times = []
    want_below = True
    for t, below in enumerate(x[1:] <= c * x[:-1], start=1):
        if below == want_below:
            times.append(t)
            want_below = not want_below
    return np.asarray(times, dtype=int)


def sign_change_times(path):
    """Times t with sign(X_t) != sign(X_{t-1}) on one path."""
    x = np.sign(np.asarray(path, dtype=float))
    return np.flatnonzero(x[1:] != x[:-1]) + 1


def value_change_times(path):
    """The first time the alternation X_t = -X_{t-1} breaks on one path."""
    x = np.asarray(path, dtype=float)
    return np.flatnonzero(x[1:] != -x[:-1])[:1] + 1


# ---------------------------------------------------------------------------
# norming: the forms it replaced by one implementation, and mpmath laws
# ---------------------------------------------------------------------------

class AlternatingGaussianScheme:
    """The alternating norming of the negatively dependent Gaussian chain as
    its own scheme: a_t(v) = (-1)^t rho^(2t) v, b_t(v) = |v|^(1/2),
    psi_a = -rho^2 x and psi_b = |rho|^(t-1)."""

    def __init__(self, rho):
        self.rho = float(rho)

    def a(self, t, v):
        return (-1.0) ** t * self.rho ** (2 * t) * np.asarray(v, dtype=float)

    def b(self, t, v):
        return np.sqrt(np.abs(np.asarray(v, dtype=float)))

    def psi_a(self, t, x):
        return -self.rho * self.rho * np.asarray(x, dtype=float)

    def psi_b(self, t, x):
        return np.full_like(np.asarray(x, dtype=float), abs(self.rho) ** (t - 1))

    def one_step_a(self, t, w):
        return self.a(1, w)


def logistic_law_power_forms(gamma=None, phi1=None, phi2=None, nu=None):
    """(cdf, ppf) of the logistic limit law as the BEV law (``gamma``) or G1
    (``phi1``, ``phi2``, ``nu``) wrote it: (1 + e^{-x/gamma})^{gamma-1} and
    -gamma log(p^{1/(gamma-1)} - 1), or G1's cdf with the quantile
    -log((p^{1/(nu-1)} - 1)^nu / ratio).  Both quantiles cancel as p -> 1."""
    if gamma is not None:
        return ((lambda x: (1.0 + np.exp(-x / gamma)) ** (gamma - 1.0)),
                (lambda p: -gamma * np.log(p ** (1.0 / (gamma - 1.0)) - 1.0)))
    ratio = phi2 / phi1
    return ((lambda x: (1.0 + (ratio * np.exp(-x)) ** (1.0 / nu)) ** (nu - 1.0)),
            (lambda p: -np.log((p ** (1.0 / (nu - 1.0)) - 1.0) ** nu / ratio)))


def arch_law_ndtr_forms(theta1, kappa, sign):
    """(cdf, ppf) of G+ (``sign`` +1) or G- (-1) as two normal laws:
    2 Phi(e^{x/kappa}/sqrt(theta1)) - 1, which cancels in the lower tail, with
    quantile kappa log(sqrt(theta1) Phi^-1((1 + p)/2)), +inf at p = 1 - 2^-53;
    and 2 Phi(-e^{-x/kappa}/sqrt(theta1)) with -kappa log(-sqrt(theta1) Phi^-1(p/2))."""
    from scipy.special import ndtr, ndtri
    rt = math.sqrt(theta1)
    if sign > 0:
        return ((lambda x: 2.0 * ndtr(np.exp(x / kappa) / rt) - 1.0),
                (lambda p: kappa * np.log(rt * ndtri((1.0 + p) / 2.0))))
    return ((lambda x: 2.0 * ndtr(-np.exp(-x / kappa) / rt)),
            (lambda p: -kappa * np.log(-rt * ndtri(p / 2.0))))


def logistic_law_mp(r, nu, dps=60):
    """(cdf, ppf) of K(x) = (1 + (r e^{-x})^{1/nu})^{nu-1} in mpmath, with r
    an mpmath number or a (numerator, denominator) pair of doubles, evaluated
    at the exact values of double arguments."""
    def cdf(x):
        with mpmath.workdps(dps):
            rr, n = _mp_ratio(r), mpmath.mpf(nu)
            return (1 + (rr * mpmath.exp(-mpmath.mpf(x))) ** (1 / n)) ** (n - 1)

    def ppf(p):
        with mpmath.workdps(dps):
            rr, n = _mp_ratio(r), mpmath.mpf(nu)
            return mpmath.log(rr) - n * mpmath.log(mpmath.mpf(p) ** (1 / (n - 1)) - 1)

    return cdf, ppf


def _mp_ratio(r):
    return mpmath.mpf(r[0]) / mpmath.mpf(r[1]) if isinstance(r, tuple) else mpmath.mpf(r)


def arch_law_mp(theta1, kappa, sign, dps=60):
    """(cdf, ppf) in mpmath of G+(x) = erf(e^{x/kappa}/c) (``sign`` +1) or
    G-(x) = erfc(e^{-x/kappa}/c) (-1), c = sqrt(2 theta1).  G-'s quantile
    takes the root z of log erfc(z) = log p, from scipy's erfcinv as the
    starting point only."""
    from scipy.special import erfcinv

    def cdf(x):
        with mpmath.workdps(dps):
            c, k = mpmath.sqrt(2 * mpmath.mpf(theta1)), mpmath.mpf(kappa)
            f = mpmath.erf if sign > 0 else mpmath.erfc
            return f(mpmath.exp(sign * mpmath.mpf(x) / k) / c)

    def ppf(p):
        with mpmath.workdps(dps):
            c, k, p_mp = mpmath.sqrt(2 * mpmath.mpf(theta1)), mpmath.mpf(kappa), mpmath.mpf(p)
            if sign > 0:
                z = mpmath.erfinv(p_mp)
            else:
                z = mpmath.findroot(lambda z: mpmath.log(mpmath.erfc(z)) - mpmath.log(p_mp),
                                    mpmath.mpf(float(erfcinv(p))))
            return sign * k * mpmath.log(c * z)

    return cdf, ppf
