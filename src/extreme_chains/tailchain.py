"""Simulators for the limit processes: one tail-chain recursion for the three
theorem regimes (the norming scheme carries its regime), hidden tail chains
with change-points, affine path reconstruction, and change-point rules whose
``detect(paths)`` marks change-points on simulated paths.

Atoms at +-infinity never enter floating-point arithmetic: hidden-chain
states carry integer regime codes instead and the values stay finite.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import kernels, margins, norming, numerics
from .errors import RegimeError, ValidationError

__all__ = [
    "TailChainPaths",
    "HiddenChainPaths",
    "RatioThreshold",
    "SignChange",
    "ValueChange",
    "first_times",
    "simulate_tail_chain",
    "tail_chain_steps",
    "hidden_asym_logistic",
    "hidden_ht_mixture",
    "hidden_rootzen_smith",
    "hidden_arch",
    "reconstruct_paths",
]


@dataclass
class TailChainPaths:
    """n simulated tail-chain paths: E0 plus M_1..M_T (columns)."""

    E0: np.ndarray
    M: np.ndarray


# regime codes shared by the hidden-chain simulators
REGIME_EXTREME = 1          # following the extreme mode / alpha_1 mode
REGIME_BODY = 0             # returned to the body of the distribution
REGIME_SECOND = 2           # alpha_2 mode of the mixture chain
REGIME_NEG = -1             # negative-extreme regime (sign-switching chains)

# per-step update-case codes for the mixture hidden chain (0 = initial draw)
MIX_CASE_A1_INNOV = 1       # alpha1 M + (n_t)^{beta1} eps1
MIX_CASE_A2_INNOV = 2       # alpha2 M + (n_t)^{beta2} eps2
MIX_CASE_INNOV1_ONLY = 3    # (n_t)^{beta1} eps1
MIX_CASE_INNOV2_ONLY = 4    # (n_t)^{beta2} eps2
MIX_CASE_A1_SCALE = 5       # alpha1 M (deterministic)
MIX_CASE_A2_SCALE = 6       # alpha2 M (deterministic)


@dataclass
class HiddenChainPaths:
    """Hidden tail-chain paths with latent states and change-point annotations."""

    M: np.ndarray                       # (n, T) values, always finite
    regime: np.ndarray                  # (n, T) integer regime codes
    is_changepoint: np.ndarray          # (n, T) bool, column t-1 True at t = T^B_k
    B: np.ndarray = None                # latent Bernoulli draws where used
    case: np.ndarray = None             # per-step update-case codes (mixture)

    @property
    def horizon(self):
        return self.M.shape[1]


def first_times(mask):
    """The 1-based time of the first True in each row of an (n, T)
    change-point mask, or T + 1 in a row with none (1 everywhere at T = 0)."""
    mask = np.atleast_2d(mask)
    # a True column appended after time T stops argmax in rows with none
    return np.argmax(np.column_stack([mask, np.ones(len(mask), dtype=bool)]),
                     axis=1) + 1


def _check_horizon(T, n):
    if T < 1 or n < 1:
        raise ValidationError("need horizon >= 1 and at least one path")


def _tail_chain(scheme, K, T, n, rng, K_plus):
    """Yield E0, then M_1, ..., M_T, one n-vector each (see
    ``simulate_tail_chain``); the checks run before E0 is drawn."""
    _check_horizon(T, n)
    K_plus = K if K_plus is None else K_plus
    for law in (K, K_plus):
        if law.has_atoms:
            raise RegimeError(
                "limit law has atoms at +-inf; use the hidden-chain simulators")
        if scheme.scale_only and (law.support[0] < 0.0 or law.cdf(0.0) > 0.0):
            raise RegimeError(
                "scale-only regime needs K on (0, inf) with K({0}) = 0")
    yield rng.exponential(size=n)
    m = K.sample(n, rng)
    yield m
    for t in range(2, T + 1):
        eps = (K_plus if t % 2 == 0 else K).sample(n, rng)
        m = scheme.psi_a(t, m) + scheme.psi_b(t, m) * eps
        yield m


def tail_chain_steps(scheme, K, T, n, rng, K_plus=None):
    """The tail chain's M_1, ..., M_T of n paths, one n-vector per step.

    The law and regime checks run and E0 is drawn before the first step,
    so the draws are those of ``simulate_tail_chain`` with the same
    generator; only the step just drawn is held.
    """
    return islice(_tail_chain(scheme, K, T, n, rng, K_plus), 1, None)


def simulate_tail_chain(scheme, K, T, n, rng, K_plus=None):
    """Tail chain M_1 ~ K, M_t = psi_a(t, M_{t-1}) + psi_b(t, M_{t-1}) eps_t.

    The scheme carries the regime through its update functions: location and
    scale (Theorem 1), scale only with psi_a = 0 (Theorem 2, which needs K on
    (0, inf) with K({0}) = 0), or sign-alternating (Theorem 3).  ``K_plus``,
    when given, is the law of the innovations that produce even steps (K_+ of
    Theorem 3, ``K`` then being K_-); by default every innovation is drawn
    from ``K``.  Neither law may carry mass at +-infinity.

    The paths are the steps of ``tail_chain_steps`` stacked into an (n, T)
    array, with E0 beside them; a consumer that reads one step at a time
    should iterate ``tail_chain_steps`` instead.
    """
    steps = _tail_chain(scheme, K, T, n, rng, K_plus)
    E0 = next(steps)
    M = np.empty((n, T))
    for t, m in enumerate(steps):
        M[:, t] = m
    return TailChainPaths(E0, M)


def hidden_asym_logistic(phi1, phi2, nu, T, n, rng):
    """Hidden tail chain of the asymmetric-logistic chain.

    Before the first zero of the latent Bernoulli(phi1) sequence the chain is
    a random walk with extreme-mode increments; at the change-point it
    restarts from an independent unit exponential, and afterwards it evolves
    by the original transition kernel.
    """
    _check_horizon(T, n)
    g1 = norming.limit_law("asym_logistic_g1", phi1=phi1, phi2=phi2, nu=nu)
    kernel = kernels.AsymmetricLogisticKernel(phi1, phi2, nu)
    B = rng.uniform(size=(n, T)) < phi1
    # T^B = first t with B_t = 0 (may exceed the horizon)
    tb = first_times(~B)[:, None]
    t = np.arange(1, T + 1)
    pre, cp, after = t < tb, t == tb, t > tb
    regime = np.where(pre, REGIME_EXTREME, REGIME_BODY).astype(np.int8)

    # column 0 holds M_0 = 0, so step 1 adds its G1 increment like any other;
    # each path draws only the variate its regime uses
    M = np.zeros((n, T + 1))
    for i in range(1, T + 1):
        walk, restart, live = pre[:, i - 1], cp[:, i - 1], after[:, i - 1]
        M[walk, i] = M[walk, i - 1] + g1.sample(int(walk.sum()), rng)
        M[restart, i] = rng.exponential(size=int(restart.sum()))
        if live.any():
            M[live, i] = kernel.sample(np.maximum(M[live, i - 1], 1e-12), rng)
    return HiddenChainPaths(M[:, 1:], regime, cp, B=B)


def _flip_changepoints(B):
    """Change-point mask of a latent sequence started from B_0 = 1."""
    n, T = B.shape
    prev = np.concatenate([np.ones((n, 1), dtype=bool), B[:, :-1]], axis=1)
    return B != prev


def _mixture_cases(B, cp, b1, b2):
    """The (n, T) update-case codes of the mixture chain, from its latent path
    alone: B (mode 1 active) and its change-point mask cp.  Column 0 is the
    initial draw."""
    k = np.cumsum(cp, axis=1)          # change-points up to and including t
    start2 = ~B[:, :1]                 # T^B_1 = 1: the chain starts in mode 2
    case = np.where(B, MIX_CASE_A1_INNOV, MIX_CASE_A2_INNOV).astype(np.int8)
    if b1 > b2:
        # alpha2 intervals degenerate to pure scaling, unless the chain
        # started in mode 2; re-entry into mode 1 after such a start forgets
        # the past
        case[~B & ~(start2 & (k == 1))] = MIX_CASE_A2_SCALE
        case[B & start2 & cp & (k == 2)] = MIX_CASE_INNOV1_ONLY
    elif b1 < b2:
        # mode-1 intervals after a change-point degenerate to scaling; the
        # first entry into mode 2 forgets the past
        case[B & (k >= 1)] = MIX_CASE_A1_SCALE
        case[~B & cp & (k == 1)] = MIX_CASE_INNOV2_ONLY
    case[:, 0] = 0
    return case


def hidden_ht_mixture(lam, mode1, mode2, T, n, rng, latent=None):
    """Hidden tail chain of the two-component canonical mixture.

    ``mode1``/``mode2`` are (alpha, beta, G) triples with alpha1 > alpha2 and
    limit laws G for the innovations.  The update follows the mixture case
    table: between change-points the chain contracts by the active alpha, at
    transitions it degenerates to a pure scaling or an innovation-only draw
    depending on the ordering of beta1 and beta2.  The case table, and the
    scale n^alpha_t (the product of the active alphas), follow from the
    latent path before any value is drawn; each step then draws each path's
    innovation from its mode's law and applies its case.  ``latent`` overrides the
    Bernoulli(lam) draws (row-wise) for scenario tests.
    """
    _check_horizon(T, n)
    a1, b1, G1 = mode1
    a2, b2, G2 = mode2
    if not a1 > a2:
        raise ValidationError("mixture modes need alpha1 > alpha2")
    if not 0.0 < lam < 1.0:
        raise ValidationError("lambda must lie in (0, 1)")
    if latent is None:
        B = rng.uniform(size=(n, T)) < lam
    else:
        B = np.asarray(latent, dtype=bool)
        if B.shape != (n, T):
            raise ValidationError("latent override must have shape (n, T)")
    cp = _flip_changepoints(B)
    regime = np.where(B, REGIME_EXTREME, REGIME_SECOND).astype(np.int8)
    case = _mixture_cases(B, cp, b1, b2)
    alpha = np.where(B, a1, a2)
    n_alpha = np.cumprod(alpha, axis=1)
    forgets = (case == MIX_CASE_INNOV1_ONLY) | (case == MIX_CASE_INNOV2_ONLY)
    scales = case >= MIX_CASE_A1_SCALE

    def innovations(b):     # G1 where B holds, G2 where it does not
        eps = np.empty(n)
        eps[b], eps[~b] = G1.sample(int(b.sum()), rng), G2.sample(int((~b).sum()), rng)
        return eps

    M = np.empty((n, T))
    M[:, 0] = innovations(B[:, 0])
    for i in range(1, T):
        scale = n_alpha[:, i - 1]
        past = alpha[:, i] * M[:, i - 1]
        innov = np.where(B[:, i], scale ** b1, scale ** b2) * innovations(B[:, i])
        M[:, i] = np.select([forgets[:, i], scales[:, i]], [innov, past], past + innov)
    return HiddenChainPaths(M, regime, cp, B=B, case=case)


def hidden_rootzen_smith(T, n, rng, p=0.5):
    """Hidden tail chain of the tail-switching chain: zero until a geometric
    termination time, then an independent copy of the chain from Laplace."""
    _check_horizon(T, n)
    term = rng.geometric(p, size=n)[:, None]
    t = np.arange(1, T + 1)
    body, cp = term <= t, term == t
    regime = np.where(body, REGIME_BODY, REGIME_EXTREME).astype(np.int8)
    run = body & ~cp
    kernel = kernels.RootzenSmithKernel(p_flip=1.0 - p)
    M = np.where(cp, margins.LAPLACE.ppf(margins.nonzero_draws(rng.uniform, n))[:, None], 0.0)
    for i in range(1, T):
        live = run[:, i]
        if live.any():
            M[live, i] = kernel.sample(M[live, i - 1], rng)
    return HiddenChainPaths(M, regime, cp)


def hidden_arch(theta0, theta1, T, n, rng):
    """Hidden tail chain of the volatility chain on Laplace margins.

    Signed random walk M_{t+1} = s_{t+1} M_t + eps_{t+1} whose sign flips
    exactly at the change-points of a latent Bernoulli(1/2) sequence; the
    innovation law alternates between the upper- and lower-tail limits with
    the parity of the change-point count.
    """
    _check_horizon(T, n)
    kappa = numerics.arch_tail_index(theta1)
    gp = norming.limit_law("arch_g_plus", theta1=theta1, kappa=kappa)
    B = rng.uniform(size=(n, T)) < 0.5
    cp = _flip_changepoints(B)
    # k odd inside [T^B_k, T^B_{k+1}) -> lower-tail regime, G_- innovations
    use_minus = np.cumsum(cp, axis=1) % 2 == 1
    regime = np.where(use_minus, REGIME_NEG, REGIME_EXTREME).astype(np.int8)
    sign = np.where(cp, -1.0, 1.0)
    # G- innovations are -G+ ones, as G-(x) = 1 - G+(-x)
    innov_sign = np.where(use_minus, -1.0, 1.0)
    M = np.empty((n, T))
    M[:, 0] = innov_sign[:, 0] * gp.sample(n, rng)
    for i in range(1, T):
        M[:, i] = sign[:, i] * M[:, i - 1] + innov_sign[:, i] * gp.sample(n, rng)
    return HiddenChainPaths(M, regime, cp, B=B)


def reconstruct_paths(x0, scheme, M):
    """Affine reconstruction X_t = a_t(x0) + b_t(x0) M_t, columnwise."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    T = M.shape[1]
    a = np.array([np.asarray(scheme.a(t, x0), dtype=float) for t in range(1, T + 1)])
    b = np.array([np.asarray(scheme.b(t, x0), dtype=float) for t in range(1, T + 1)])
    return a[None, :] + b[None, :] * M if a.ndim == 1 else a.T + b.T * M


# ---------------------------------------------------------------------------
# change-point rules: ``detect(paths)`` takes X_0..X_T per row (a 1-D path is
# one row) and returns the (n, T) mask whose column t - 1 is True when the
# rule detects at time t
# ---------------------------------------------------------------------------

@dataclass
class RatioThreshold:
    """T_1 = first t with X_t <= c X_{t-1}; later detections alternate the
    direction of the comparison (mixture-chain convention)."""

    c: float

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValidationError("ratio threshold c must lie in (0, 1)")

    def detect(self, paths):
        x = np.atleast_2d(np.asarray(paths, dtype=float))
        below = x[:, 1:] <= self.c * x[:, :-1]
        mask = np.empty_like(below)
        want_below = np.ones(len(x), dtype=bool)
        for t in range(below.shape[1]):
            mask[:, t] = below[:, t] == want_below
            want_below ^= mask[:, t]
        return mask


@dataclass
class SignChange:
    """Times with sign(X_t) != sign(X_{t-1})."""

    def detect(self, paths):
        x = np.sign(np.atleast_2d(np.asarray(paths, dtype=float)))
        return x[:, 1:] != x[:, :-1]


@dataclass
class ValueChange:
    """First time the strict alternation X_t = -X_{t-1} breaks."""

    def detect(self, paths):
        x = np.atleast_2d(np.asarray(paths, dtype=float))
        brk = x[:, 1:] != -x[:, :-1]
        return brk & (np.cumsum(brk, axis=1) == 1)
