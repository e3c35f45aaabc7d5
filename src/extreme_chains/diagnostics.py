"""Monte-Carlo verification layer: conditional forward simulation, normalized
kernel convergence, quantile envelopes, tail-dependence estimates, and
change-point law checks.  Every routine takes an explicit generator and
records seeds/sample sizes in its outputs so runs reproduce exactly.
"""

from dataclasses import dataclass

import numpy as np

from . import margins, tailchain
from .errors import DomainError, ValidationError

__all__ = [
    "FixedX0",
    "Exceedance",
    "forward_states",
    "conditional_forward_sim",
    "normalized_samples",
    "ks_distance",
    "ks_against_limit",
    "ConvergenceRow",
    "convergence_table",
    "QuantileEnvelope",
    "quantile_envelope",
    "ChiRow",
    "chi_estimate",
    "changepoint_law_check",
    "geometric_pmf_truncated",
]


@dataclass
class FixedX0:
    """Start every path at ``x0``, which must lie inside the law's open
    support (else ValidationError: a start is a choice of the caller)."""

    x0: float

    def draw(self, law, n, rng):
        lo, hi = law.support
        if not lo < self.x0 < hi:
            raise ValidationError(f"start x0 = {self.x0} lies outside the open "
                                  f"support ({lo}, {hi}) of the chain's law")
        return np.full(n, self.x0, dtype=float)


@dataclass
class Exceedance:
    """Start from ``law`` above ``u`` by exact conditioning on the Laplace
    scale, with l_u = law.to_laplace(u) and one uniform U per path.  Above the
    median the Laplace excess is exactly unit exponential, so X_0 =
    law.from_laplace(l_u - log(1 - U)); below it X_0 =
    law.from_laplace(LAPLACE.isf(LAPLACE.sf(l_u) (1 - U))).  Every draw keeps
    full relative precision however deep u sits.  A threshold at or below
    the support floor draws from the whole law; one whose Laplace value is
    +inf or NaN raises DomainError."""

    u: float

    def draw(self, law, n, rng):
        lu = float(law.to_laplace(self.u))
        if not lu < np.inf:
            raise DomainError(f"threshold {self.u} beyond the law's numeric range "
                              f"(Laplace value {lu})")
        U = rng.uniform(size=n)
        if lu >= 0.0:
            return law.from_laplace(lu - np.log1p(-U))
        lap = margins.LAPLACE
        return law.from_laplace(lap.isf(lap.sf(lu) * (1.0 - U)))


def forward_states(kernel, law, init, T, n, rng):
    """Yield X_0, ..., X_T of n paths, one n-vector per step: ``init``
    (FixedX0 or Exceedance) draws X_0 from ``law``, then each step is one
    ``kernel.sample`` of the step before.  Only the step just drawn is held,
    so a consumer that summarises each step as it arrives runs in O(n)
    memory whatever the horizon."""
    if n < 1 or T < 0:
        raise ValidationError("need n >= 1 and T >= 0")
    x = init.draw(law, n, rng)
    yield x
    for _ in range(T):
        x = kernel.sample(x, rng)
        yield x


def conditional_forward_sim(kernel, law, init, T, n, rng):
    """The (n, T + 1) array of n paths X_0..X_T, filled step by step from
    ``forward_states``, so the same generator gives the same paths.  A
    consumer that reads one step at a time should iterate
    ``forward_states`` instead: this array is O(n T)."""
    states = forward_states(kernel, law, init, T, n, rng)
    x0 = next(states)
    X = np.empty((n, T + 1))
    X[:, 0] = x0
    for t, x in enumerate(states, 1):
        X[:, t] = x
    return X


def _state_at(kernel, law, init, t, n, rng):
    """X_t of n paths from ``forward_states``, holding one step at a time."""
    for x in forward_states(kernel, law, init, t, n, rng):
        pass
    return x


def normalized_samples(kernel, v, scheme, t, n, rng):
    """n draws of (X_t - a_t(v)) / b_t(v) given X_0 = v (forward simulation)."""
    if t < 1:
        raise ValidationError("need t >= 1")
    x = _state_at(kernel, kernel.stationary_law, FixedX0(v), t, n, rng)
    return (x - scheme.a(t, v)) / scheme.b(t, v)


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov sup-distance between a sample and a reference CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise DomainError("empty sample")
    F = np.asarray(cdf(s), dtype=float)
    up = np.max(np.abs(F - np.arange(1, n + 1) / n))
    dn = np.max(np.abs(F - np.arange(0, n) / n))
    return float(max(up, dn))


ATOM_CUT = 20.0


def ks_against_limit(samples, law):
    """KS against a limit law, atoms handled separately.

    Values below -ATOM_CUT count toward the -inf atom, above it toward the
    +inf atom; the KS distance is computed between the interior sample and
    the law's (normalised) continuous component.  Returns (ks, lo, hi).
    """
    s = np.asarray(samples, dtype=float)
    mass_lo = float(np.mean(s < -ATOM_CUT))
    mass_hi = float(np.mean(s > ATOM_CUT))
    interior = s[(s >= -ATOM_CUT) & (s <= ATOM_CUT)]
    if interior.size == 0:
        return 1.0, mass_lo, mass_hi
    return ks_distance(interior, law.cdf), mass_lo, mass_hi


@dataclass
class ConvergenceRow:
    v: float
    n: int
    ks: float
    mass_lo: float
    mass_hi: float
    seed: int


def convergence_table(kernel, scheme, K, t, v_grid, n, seed):
    """One ConvergenceRow per threshold v, with escaped-mass columns for atom
    laws."""
    rows = []
    for j, v in enumerate(v_grid):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=int(seed), spawn_key=(0xC0, j)))
        z = normalized_samples(kernel, float(v), scheme, t, n, rng)
        ks, lo, hi = ks_against_limit(z, K)
        rows.append(ConvergenceRow(float(v), n, ks, lo, hi, int(seed)))
    return rows


@dataclass
class QuantileEnvelope:
    """Per-step 2.5%/mean/97.5% summary of a path bundle."""

    source: str
    t: np.ndarray
    q025: np.ndarray
    mean: np.ndarray
    q975: np.ndarray
    n_paths: int = 0
    precision_warning: bool = False


def quantile_envelope(paths, source="actual", t_start=0):
    """Per-step 2.5%/mean/97.5% envelope of a path bundle.

    ``paths`` is an iterable of per-step vectors, the states of every path
    at one step (as ``forward_states`` yields them).  Each step is summarised
    as it arrives, by ``np.quantile`` and the vector's mean, so only one step
    is held at a time.  A 2-D array of shape (n_paths, horizon) is read by
    columns.  Fewer than 100 paths sets ``precision_warning`` on the result.
    """
    if isinstance(paths, np.ndarray):
        paths = np.atleast_2d(paths).T
    rows, n = [], 0
    for x in paths:
        x = np.asarray(x, dtype=float)
        n = x.size
        q025, q975 = np.quantile(x, [0.025, 0.975])
        rows.append((q025, x.mean(), q975))
    q025, mean, q975 = np.array(rows, dtype=float).reshape(-1, 3).T
    return QuantileEnvelope(
        source=source,
        t=np.arange(t_start, t_start + len(rows)),
        q025=q025,
        mean=mean,
        q975=q975,
        n_paths=n,
        precision_warning=n < 100,
    )


@dataclass
class ChiRow:
    u: float
    estimate: float
    n_exceed: int
    n: int
    flagged: bool


_MIN_EXCEED = 50   # a chi row with fewer lag-t exceedances is flagged


def chi_estimate(kernel, law, t, u_grid, n, seed):
    """Empirical chi_t(u) = Pr(F(X_t) > u | F(X_0) > u) per threshold u.

    The conditioning is exact (inverse-CDF above the threshold); rows whose
    lag-t exceedance count falls below 50 are flagged.
    """
    rows = []
    for j, u in enumerate(u_grid):
        if not 0.0 < u < 1.0:
            raise DomainError("u grid must lie inside (0, 1)")
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=int(seed), spawn_key=(0xC1, j)))
        x_u = float(law.ppf(u))
        hits = law.cdf(_state_at(kernel, law, Exceedance(x_u), t, n, rng)) > u
        cnt = int(hits.sum())
        rows.append(ChiRow(float(u), float(hits.mean()), cnt, n, cnt < _MIN_EXCEED))
    return rows


def geometric_pmf_truncated(p, horizon):
    """Geometric(p) pmf on {1..horizon} plus the right-tail lump."""
    t = np.arange(1, horizon + 1)
    pmf = (1.0 - p) ** (t - 1) * p
    return np.concatenate([pmf, [(1.0 - p) ** horizon]])


def changepoint_law_check(paths, rule, p, horizon=None):
    """Total-variation distance between the first-detection law and Geometric(p).

    ``rule`` is a change-point rule from ``tailchain``: ``rule.detect(paths)``
    is the (n, T) mask whose column t - 1 marks a detection at time t.
    ``paths`` holds X_0..X_T per row; detections beyond the horizon land in a
    shared truncation bucket on both sides.
    """
    paths = np.atleast_2d(np.asarray(paths, dtype=float))
    T = paths.shape[1] - 1
    horizon = T if horizon is None else min(horizon, T)
    if horizon < 0:
        raise ValidationError("horizon must be >= 0")
    firsts = tailchain.first_times(rule.detect(paths)[:, :horizon])
    emp = np.bincount(firsts, minlength=horizon + 2)[1:] / paths.shape[0]
    ref = geometric_pmf_truncated(p, horizon)
    return float(0.5 * np.abs(emp - ref).sum())
