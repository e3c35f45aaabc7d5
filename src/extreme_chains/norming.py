"""Norming schemes a_t, b_t with their update functions, limit laws, and the
remainder terms that witness the convergence assumptions numerically.

Update-function indexing: a scheme's ``psi_a(t, x)`` and ``psi_b(t, x)`` are
the maps producing M_t from M_{t-1}, indexed by the step they produce
(t >= 2).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc, erfcinv, erfinv, ndtr, ndtri

from . import margins
from .errors import RegimeError, ValidationError, build

__all__ = [
    "NormingScheme",
    "LimitLaw",
    "make_norming",
    "limit_law",
    "remainder_terms",
    "remainder_table",
]


class NormingScheme:
    """Time-indexed location/scale norming pair with one-step base maps and
    the update functions of the tail-chain recursion
    M_t = psi_a(t, M_{t-1}) + psi_b(t, M_{t-1}) eps_t."""

    scale = margins.EXPONENTIAL     # marginal law the scheme lives on
    scale_only = False              # Theorem-2 regime (no location norming)

    def a(self, t, v):
        raise NotImplementedError

    def b(self, t, v):
        raise NotImplementedError

    def psi_a(self, t, x):
        """The random walk M_t = M_{t-1} + eps_t unless a scheme says otherwise."""
        return np.asarray(x, dtype=float)

    def psi_b(self, t, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def one_step_a(self, t, w):
        """One-step location map applied at time t (parity-aware for
        alternating schemes where the map differs by tail)."""
        return self.a(1, w)


class HtCanonicalScheme(NormingScheme):
    """Canonical family a(v) = alpha v, b(v) = v**beta on the exponential scale.

    Three regimes: random walk (alpha=1, beta=0), scaled autoregression
    (alpha in (0,1)), and the scale-only exponential autoregression (alpha=0,
    beta in (0,1)) where b_t(v) = v**(beta**t).
    """

    def __init__(self, alpha, beta):
        ok = (0.0 <= alpha <= 1.0) and (0.0 <= beta < 1.0) and (alpha, beta) != (0.0, 0.0)
        if not ok:
            raise ValidationError(
                "(alpha, beta) must lie in [0,1] x [0,1) and not be (0, 0)")
        if alpha == 1.0 and beta != 0.0:
            raise ValidationError("alpha = 1 requires beta = 0")
        self.scale_only = alpha == 0.0
        self.alpha = float(alpha)
        self.beta = float(beta)

    def a(self, t, v):
        v = np.asarray(v, dtype=float)
        if self.alpha == 0.0:
            return np.zeros_like(v)
        return self.alpha ** t * v

    def b(self, t, v):
        v = np.asarray(v, dtype=float)
        if self.alpha == 0.0:
            return v ** (self.beta ** t)
        if self.beta == 0.0:
            return np.ones_like(v)
        return v ** self.beta

    def psi_a(self, t, x):
        return self.alpha * np.asarray(x, dtype=float)

    def psi_b(self, t, x):
        x = np.asarray(x, dtype=float)
        if self.scale_only:
            return x ** self.beta
        return np.full_like(x, self.alpha ** ((t - 1) * self.beta))


class HuslerReissScheme(NormingScheme):
    """Norming for the inverted max-stable chain with Husler-Reiss dependence.

    a_t(v) = v exp(-g t (2 log v)^{1/2} + g t loglog v / (2 log v)^{1/2}
    + (g t)^2 / 2), b_t(v) = a_t(v)/(log v)^{1/2}.  The loglog term uses the
    (2 log v)^{-1/2} scaling that makes the normalized kernel converge to the
    stated limit law (checked numerically in the test suite).
    """

    def __init__(self, gamma):
        if gamma <= 0.0:
            raise ValidationError("gamma must be positive")
        self.gamma = float(gamma)

    def a(self, t, v):
        v = np.asarray(v, dtype=float)
        g = self.gamma
        L = np.log(v)
        s = np.sqrt(2.0 * L)
        return v * np.exp(-g * t * s + g * t * np.log(L) / s + (g * t) ** 2 / 2.0)

    def b(self, t, v):
        v = np.asarray(v, dtype=float)
        return self.a(t, v) / np.sqrt(np.log(v))


class DensityDecayScheme(NormingScheme):
    """Norming for inverted max-stable chains whose spectral density decays
    like w**delta exp(-kappa w**-gamma) at the origin.

    With c = delta + 2(1 + gamma):
      a_t(v) = v (log v / kappa)^{-t/gamma}
               (1 + (zeta_t/gamma^2) loglog v / log v + t C1 / log v),
      b_t(v) = a_t(v) / log v,
    zeta_t = C(t,2) + t (c - gamma) and C1 = -C0/gamma with
    C0 = (c/gamma - 1) log kappa - log(gamma kappa c); these constants make
    the one-step normalized kernel converge to K(x) = 1 - exp(-c e^{gamma x})
    exactly and keep the t-step update a pure random walk with drift
    -(t/gamma^2) log kappa.
    """

    def __init__(self, kappa, gamma, delta):
        if kappa <= 0.0 or gamma <= 0.0:
            raise ValidationError("kappa and gamma must be positive")
        self.kappa = float(kappa)
        self.gamma = float(gamma)
        self.delta = float(delta)
        self.c = delta + 2.0 * (1.0 + gamma)
        self.C0 = (self.c / gamma - 1.0) * math.log(kappa) \
            - math.log(gamma * kappa * self.c)
        self.C1 = -self.C0 / gamma

    def zeta(self, t):
        return t * (t - 1) / 2.0 + t * (self.c - self.gamma)

    def a(self, t, v):
        v = np.asarray(v, dtype=float)
        g = self.gamma
        L = np.log(v)
        corr = 1.0 + (self.zeta(t) / g ** 2) * np.log(L) / L + t * self.C1 / L
        return v * (L / self.kappa) ** (-t / g) * corr

    def b(self, t, v):
        v = np.asarray(v, dtype=float)
        return self.a(t, v) / np.log(v)

    def psi_a(self, t, x):
        drift = ((t - 1) / self.gamma ** 2) * math.log(self.kappa)
        return np.asarray(x, dtype=float) - drift


class NegativeHtScheme(NormingScheme):
    """Alternating canonical norming for negatively dependent chains."""

    scale = margins.LAPLACE

    def __init__(self, alpha_minus, alpha_plus, beta):
        for nm, a in (("alpha_minus", alpha_minus), ("alpha_plus", alpha_plus)):
            if not -1.0 < a < 0.0:
                raise ValidationError(f"{nm} must lie in (-1, 0)")
        if not 0.0 <= beta < 1.0:
            raise ValidationError("beta must lie in [0, 1)")
        self.alpha_minus = float(alpha_minus)
        self.alpha_plus = float(alpha_plus)
        self.beta = float(beta)

    def coef(self, t):
        return self.alpha_minus ** ((t + 1) // 2) * self.alpha_plus ** (t // 2)

    def a(self, t, v):
        return self.coef(t) * np.asarray(v, dtype=float)

    def b(self, t, v):
        return np.abs(np.asarray(v, dtype=float)) ** self.beta

    def one_step_a(self, t, w):
        # from a lower-tail state (t odd) the relevant map is alpha_plus
        al = self.alpha_plus if t % 2 == 1 else self.alpha_minus
        return al * np.asarray(w, dtype=float)

    def psi_a(self, t, x):
        # producing an even step applies alpha_plus
        al = self.alpha_plus if t % 2 == 0 else self.alpha_minus
        return al * np.asarray(x, dtype=float)

    def psi_b(self, t, x):
        return np.full_like(np.asarray(x, dtype=float),
                            abs(self.coef(t - 1)) ** self.beta)


def alternating_gaussian(rho):
    """Negatively dependent Gaussian copula chain on Laplace margins: the
    alternating norming at alpha_- = alpha_+ = -rho^2, beta = 1/2."""
    if not -1.0 < rho < 0.0:
        raise ValidationError("rho must lie in (-1, 0)")
    return NegativeHtScheme(-rho * rho, -rho * rho, 0.5)


_SCHEME_BUILDERS = {
    "ht_canonical": HtCanonicalScheme,
    "husler_reiss": HuslerReissScheme,
    "density_decay": DensityDecayScheme,
    "negative_ht": NegativeHtScheme,
    "alternating_gaussian": alternating_gaussian,
}


def make_norming(scheme_id, **params):
    """Construct a validated norming scheme from the catalogue."""
    return build(_SCHEME_BUILDERS, "norming scheme", scheme_id, params)


# ---------------------------------------------------------------------------
# limit laws
# ---------------------------------------------------------------------------

@dataclass
class LimitLaw:
    """Limit law of a normalized kernel: continuous part plus atoms at +-inf.

    ``cdf``/``ppf`` describe the normalised continuous component; the atom
    masses are carried separately and never enter floating arithmetic.
    """

    name: str
    cdf: callable
    ppf: callable
    neg_mass: float = 0.0
    pos_mass: float = 0.0
    var: float = np.nan
    support: tuple = (-np.inf, np.inf)

    @property
    def has_atoms(self):
        return self.neg_mass > 0.0 or self.pos_mass > 0.0

    def sample(self, n, rng):
        if self.has_atoms:
            raise RegimeError(
                f"{self.name} carries atoms at +-inf; use a hidden-chain simulator")
        return self.ppf(margins.nonzero_draws(rng.uniform, n))


def _gaussian_law(sd, name):
    return LimitLaw(name=name,
                    cdf=lambda x: ndtr(np.asarray(x, dtype=float) / sd),
                    ppf=lambda p: sd * ndtri(p),
                    var=sd * sd)


def _law_gaussian_exponential(rho):
    if not -1.0 < rho < 1.0 or rho == 0.0:
        raise ValidationError("rho must lie in (-1, 1), nonzero")
    sd = math.sqrt(2.0 * rho * rho * (1.0 - rho * rho))
    return _gaussian_law(sd, f"gaussian_exponential(rho={rho})")


def _law_gaussian_margins(rho):
    if not -1.0 < rho < 1.0 or rho == 0.0:
        raise ValidationError("rho must lie in (-1, 1), nonzero")
    return _gaussian_law(math.sqrt(1.0 - rho * rho), f"gaussian_margins(rho={rho})")


def _logistic_law(r, nu, name):
    """K(x) = (1 + (r e^{-x})^{1/nu})^{nu-1}, the logistic law at scale r.

    Its quantile log r - nu (a + log(1 - e^{-a})), a = log(p)/(nu - 1), keeps
    full precision as p -> 0 and p -> 1.  Where (r e^{-x})^{1/nu} overflows,
    K = (r e^{-x})^{(nu-1)/nu}, from log(r e^{-x}) once that overflows too.
    """
    if not (1.0 / nu < np.inf and r < np.inf):
        raise ValidationError(f"{name}: 1/nu or r overflows doubles")
    log_r, power = math.log(r), (nu - 1.0) / nu

    def cdf(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            w = r * np.exp(-x)
            s = w ** (1.0 / nu)
            deep = np.where(np.isinf(w), np.exp(power * (log_r - x)), w ** power)
            return np.where(np.isinf(s), deep, (1.0 + s) ** (nu - 1.0))

    def ppf(p):
        with np.errstate(divide="ignore"):
            a = np.log(np.asarray(p, dtype=float)) / (nu - 1.0)
        return log_r - nu * (a + margins.log1mexp(a))

    return LimitLaw(name=name, cdf=cdf, ppf=ppf)


def _law_bev_logistic(gamma):
    """One-step limit of the logistic BEV chain under the identity norming:
    the logistic law at r = 1, nu = gamma."""
    if not 0.0 < gamma < 1.0:
        raise ValidationError("gamma must lie in (0, 1)")
    return _logistic_law(1.0, gamma, f"bev_logistic(gamma={gamma})")


def _law_inverted_bev_logistic(gamma):
    """K(z) = 1 - exp(-gamma z^{1/gamma}) on (0, inf): scale-norming limit of
    the inverted logistic chain."""
    if not 0.0 < gamma < 1.0:
        raise ValidationError("gamma must lie in (0, 1)")

    def cdf(z):
        z = np.asarray(z, dtype=float)
        return np.where(z <= 0.0, 0.0, -np.expm1(-gamma * np.maximum(z, 0.0) ** (1.0 / gamma)))

    def ppf(p):
        p = np.asarray(p, dtype=float)
        return (-np.log1p(-p) / gamma) ** gamma

    return LimitLaw(name=f"inverted_bev_logistic(gamma={gamma})", cdf=cdf,
                    ppf=ppf, support=(0.0, np.inf))


def _exp_exponential_law(c, rate, name):
    """K(x) = 1 - exp(-c exp(rate x)), the limit law of the inverted
    max-stable chains under their location norming."""
    def cdf(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return -np.expm1(-c * np.exp(rate * x))

    def ppf(p):
        p = np.asarray(p, dtype=float)
        return (np.log(-np.log1p(-p)) - math.log(c)) / rate

    return LimitLaw(name=name, cdf=cdf, ppf=ppf)


def _law_husler_reiss(gamma):
    """K(x) = 1 - exp(-(8 pi)^{-1/2} gamma exp(sqrt(2) x / gamma))."""
    if gamma <= 0.0:
        raise ValidationError("gamma must be positive")
    return _exp_exponential_law(gamma / math.sqrt(8.0 * math.pi),
                                math.sqrt(2.0) / gamma, f"husler_reiss(gamma={gamma})")


def _law_density_decay(c=None, gamma=None, delta=None):
    """K(x) = 1 - exp(-c exp(gamma x)); c may be given or derived from delta."""
    if c is None and None not in (gamma, delta):
        c = delta + 2.0 * (1.0 + gamma)
    if c is None or c <= 0.0 or gamma is None or gamma <= 0.0:
        raise ValidationError("need gamma > 0 and c > 0, given or derived from delta")
    return _exp_exponential_law(c, gamma, f"density_decay(c={c}, gamma={gamma})")


def _law_asym_logistic_g1(phi1, phi2, nu):
    """G1, the continuous component of the extreme-following mode: the
    logistic law at r = phi2/phi1."""
    for nm, val in (("phi1", phi1), ("phi2", phi2), ("nu", nu)):
        if not 0.0 < val < 1.0:
            raise ValidationError(f"{nm} must lie in (0, 1)")
    return _logistic_law(phi2 / phi1, nu, f"asym_logistic_g1({phi1},{phi2},{nu})")


def _law_asym_logistic_k1(phi1, phi2, nu):
    g1 = _law_asym_logistic_g1(phi1, phi2, nu)
    return LimitLaw(name=f"asym_logistic_k1({phi1},{phi2},{nu})", cdf=g1.cdf,
                    ppf=g1.ppf, neg_mass=1.0 - phi1)


def _law_exponential():
    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, -np.expm1(-np.maximum(x, 0.0)))

    return LimitLaw(name="exponential", cdf=cdf,
                    ppf=lambda p: -np.log1p(-np.asarray(p, dtype=float)),
                    var=1.0, support=(0.0, np.inf))


def _law_asym_logistic_k2(phi1):
    if not 0.0 < phi1 < 1.0:
        raise ValidationError("phi1 must lie in (0, 1)")
    e = _law_exponential()
    return LimitLaw(name=f"asym_logistic_k2(phi1={phi1})", cdf=e.cdf, ppf=e.ppf,
                    pos_mass=phi1, support=(0.0, np.inf))


def _arch_law(theta1, kappa, sign, name):
    """G+(x) = erf(e^{x/kappa}/c), c = sqrt(2 theta1), at sign +1, and its
    mirror image G-(x) = 1 - G+(-x) = erfc(e^{-x/kappa}/c) at sign -1: the
    innovation laws of the hidden volatility chain, with quantiles through
    erfinv and erfcinv, so neither forms 1 - p."""
    if not 0.0 < theta1 <= 1.0:
        raise ValidationError("theta1 must lie in (0, 1]")
    c = math.sqrt(2.0 * theta1)
    f, f_inv = (erf, erfinv) if sign > 0 else (erfc, erfcinv)

    def cdf(x):
        with np.errstate(over="ignore"):
            return f(np.exp(sign * np.asarray(x, dtype=float) / kappa) / c)

    def ppf(p):
        with np.errstate(divide="ignore"):
            return sign * kappa * np.log(c * f_inv(np.asarray(p, dtype=float)))

    return LimitLaw(name=f"{name}(theta1={theta1})", cdf=cdf, ppf=ppf)


def _law_expar(**_):
    raise ValidationError(
        "no limiting kernel is available for the exponential autoregressive "
        "chain; simulate the actual chain instead")


_LAW_BUILDERS = {
    "gaussian_exponential": _law_gaussian_exponential,
    "gaussian_margins": _law_gaussian_margins,
    "bev_logistic": _law_bev_logistic,
    "inverted_bev_logistic": _law_inverted_bev_logistic,
    "husler_reiss": _law_husler_reiss,
    "density_decay": _law_density_decay,
    "asym_logistic_g1": _law_asym_logistic_g1,
    "asym_logistic_k1": _law_asym_logistic_k1,
    "asym_logistic_k2": _law_asym_logistic_k2,
    "exponential": _law_exponential,
    "arch_g_plus": lambda theta1, kappa: _arch_law(theta1, kappa, 1.0, "arch_g_plus"),
    "arch_g_minus": lambda theta1, kappa: _arch_law(theta1, kappa, -1.0, "arch_g_minus"),
    "expar": _law_expar,
}


def limit_law(law_id, **params):
    """Construct a validated limit law from the catalogue."""
    return build(_LAW_BUILDERS, "limit law", law_id, params)


# ---------------------------------------------------------------------------
# remainder diagnostics
# ---------------------------------------------------------------------------

def remainder_terms(scheme, t, v, x):
    """Remainder pair (r_a, r_b) of the t -> t+1 norming consistency.

    r_a = [a_{t+1}(v) - a(A) + b_{t+1}(v) psi_a(x)] / b(A) and
    r_b = 1 - b_{t+1}(v) psi_b(x) / b(A) with A = a_t(v) + b_t(v) x; both
    vanish as v grows when the scheme satisfies its convergence assumption.
    Scale-only schemes have a_t = 0 and psi_a = 0, hence r_a = 0 identically.
    """
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    A = scheme.a(t, v) + scheme.b(t, v) * x
    bA = scheme.b(1, A)
    r_a = (scheme.a(t + 1, v) - scheme.one_step_a(t, A)
           + scheme.b(t + 1, v) * scheme.psi_a(t + 1, x)) / bA
    r_b = 1.0 - scheme.b(t + 1, v) * scheme.psi_b(t + 1, x) / bA
    return r_a, r_b


def remainder_table(scheme, t_values, v_values, x_values=(-5.0, 0.0, 5.0)):
    """Rows of (t, v, x, r_a, r_b) over a grid of steps, thresholds, points.

    Grid combinations whose norming argument a_t(v) + b_t(v) x falls outside
    the scheme's marginal support (possible at small thresholds with very
    negative x, and every x <= 0 of a scale-only scheme) are skipped: the
    remainder is defined only in range.
    """
    rows = []
    for t in t_values:
        for v in v_values:
            for x in x_values:
                arg = float(scheme.a(int(t), float(v))) \
                    + float(scheme.b(int(t), float(v))) * x
                if arg <= scheme.scale.support[0]:
                    continue
                r_a, r_b = remainder_terms(scheme, int(t), float(v), float(x))
                rows.append((int(t), float(v), float(x), float(r_a), float(r_b)))
    return rows

