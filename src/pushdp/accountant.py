"""Gaussian-DP accounting: budget transfer, composition, and noise calibration.

Privacy is tracked in the Gaussian-DP parameter mu.  A single release of a
quantity with L2 sensitivity C plus N(0, sigma^2 I) noise is mu-GDP with
mu = C / sigma, and the guarantee converts to (eps, delta)-DP through

    delta(mu, eps) = Phi(-eps/mu + mu/2) - exp(eps) * Phi(-eps/mu - mu/2),

which is monotone increasing in mu for fixed eps and therefore invertible by
bisection.  K heterogeneous per-step budgets mu_k, each released on a random
1-in-J sample of the local data, compose under the CLT (central-limit)
approximation, which under-reports delta, to

    mu_tot = (1/J) * sqrt(sum_k (exp(mu_k^2) - 1)).

``solve_mu0`` inverts that composition for every budget profile: it scales a
given shape s_k until mu_k = m * s_k composes to the target, in closed form
for a flat shape and by bisection otherwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Per-step budgets above this make exp(mu^2) swamp double precision.
MU_STEP_CAP = 8.0
# Bracket for inverting delta(mu, eps) over mu.
MU_BRACKET = (1e-8, 64.0)


class NoBracket(ValueError):
    """The requested (eps, delta) point lies outside the invertible bracket."""


class BudgetOverflow(ValueError):
    """A per-step budget exceeds the representable cap."""

    def __init__(self, k: int, mu: float):
        self.k, self.mu = k, mu
        super().__init__(f"step budget mu_{k} = {mu:g} exceeds cap {MU_STEP_CAP:g}")


class RegimeWarning(UserWarning):
    """A per-step budget left the small-budget regime (mu_k^2 > 1), where the
    CLT composition may under-report delta; this warns instead of failing."""


def gaussian_cdf(t: float) -> float:
    """Standard normal CDF via erfc; absolute error below 1e-12 everywhere."""
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def log_ndtr(t: float) -> float:
    """log Phi(t) for t <= 0, relative error below 1e-15.

    Above t = -20 it is the log of the CDF, formed from erf near zero and erfc
    further out; below, the Mills-ratio series
    log Phi(t) = log(phi(t) / -t) + log(sum_k (-1)^k (2k-1)!! / t^(2k)),
    summed to k = 11: the first term left out is below 2e-20 there.
    """
    if t > -20:
        x = t / math.sqrt(2.0)
        return math.log(0.5 + 0.5 * math.erf(x) if abs(x) < math.sqrt(0.5) else 0.5 * math.erfc(-x))
    inv, term, total = 1.0 / (t * t), 1.0, 1.0
    for k in range(1, 12):
        term *= -(2 * k - 1) * inv
        total += term
    return -0.5 * t * t - math.log(-t) - 0.5 * math.log(2 * math.pi) + math.log(total)


def delta_from_mu_eps(mu: float, eps: float) -> float:
    """delta of the (eps, delta)-DP guarantee implied by mu-GDP.

    The exp(eps) * Phi(...) product is evaluated in log space so large eps
    cannot overflow before the tail probability pulls it back down.
    """
    if not mu > 0:  # so NaN fails too
        raise ValueError("mu must be positive")
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    first = gaussian_cdf(-eps / mu + mu / 2.0)
    second = math.exp(eps + log_ndtr(-eps / mu - mu / 2.0))
    return max(0.0, first - second)


def _bisect(below, lo: float, hi: float, atol: float = 0.0, rtol: float = 0.0) -> float:
    """Midpoint of the bracket [lo, hi] of a monotone predicate: halves it, keeping the half
    where ``below`` turns false, until hi - lo <= atol + rtol * hi or 200 halvings."""
    for _ in range(200):
        if hi - lo <= atol + rtol * hi:
            break
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def mu_tot_from_eps_delta(eps: float, delta: float) -> float:
    """Invert the (eps, delta) transfer for the total GDP budget.

    Bisects delta(mu, eps) = delta over the fixed bracket, relying on the
    transfer being monotone in mu.  Raises NoBracket when delta falls outside
    the achievable range on the bracket, and flags results that land within
    rounding of the upper endpoint.  Each error names the config keys it checks.
    """
    if not eps > 0:
        raise ValueError(f"privacy.epsilon must be positive, got {eps}")
    if not 0 < delta < 1:
        raise ValueError("privacy.delta must lie in (0, 1)")
    lo, hi = MU_BRACKET
    if not delta_from_mu_eps(lo, eps) <= delta <= delta_from_mu_eps(hi, eps):
        raise NoBracket(
            f"privacy.epsilon and privacy.delta: delta = {delta:g} is not reachable for "
            f"eps = {eps:g} with mu in {MU_BRACKET}"
        )
    mu = _bisect(lambda m: delta_from_mu_eps(m, eps) < delta, lo, hi, atol=1e-12)
    if mu > MU_BRACKET[1] - 1e-6:
        warnings.warn(
            f"mu_tot = {mu:g} sits at the upper bracket; the request is degenerate",
            RegimeWarning,
        )
    return mu


def compose_general(step_budgets, sampling_prob: float) -> float:
    """Total GDP budget of K subsampled releases with heterogeneous budgets.

    Evaluates p * sqrt(sum_k expm1(mu_k^2)) for the sampling probability p in
    (0, 1]; expm1 keeps small budgets exact (a zero step contributes exactly
    zero).  Budgets above MU_STEP_CAP raise BudgetOverflow with the offending
    index; budgets merely past the small-budget regime only warn.
    """
    if not 0 < sampling_prob <= 1:
        raise ValueError("sampling probability must lie in (0, 1]")
    mus = np.asarray(step_budgets, dtype=float)
    if not (mus >= 0).all():
        raise ValueError("step budgets must be nonnegative")
    over = np.flatnonzero(mus > MU_STEP_CAP)
    if over.size:
        k = int(over[0])
        raise BudgetOverflow(k, float(mus[k]))
    if (np.square(mus) > 1.0).any():
        warnings.warn(
            "some per-step budgets exceed mu_k^2 = 1; "
            "the CLT composition may under-report delta in this regime",
            RegimeWarning,
        )
    return float(sampling_prob * math.sqrt(np.expm1(np.square(mus)).sum()))


def solve_mu0(mu_tot: float, J: int, shape) -> float:
    """Multiplier m whose budget profile mu_k = m * s_k composes to mu_tot.

    Solves sum_k expm1((m s_k)^2) = (J mu_tot)^2 over the K entries of
    ``shape``, which must be finite and positive.  A flat shape has the closed
    form m = sqrt(log1p((J mu_tot)^2 / K)) / s_0, which log1p/expm1 make exact
    to rounding through ``compose_general``.  Any other shape is bisected; the
    flat budget bounds m from above when every s_k >= 1, as rho^(k/K) is, and
    the bracket auto-expands otherwise.  Raises BudgetOverflow when the largest
    step budget would pass the representable cap.
    """
    s = np.asarray(shape, dtype=float)
    if not (mu_tot > 0 and J >= 1) or s.ndim != 1 or not s.size:
        raise ValueError("need positive budget and at least one node sample and step")
    if not (np.isfinite(s) & (s > 0)).all():
        raise ValueError("budget shape entries must be finite and positive")
    K, top = len(s), int(np.argmax(s))
    target = (J * mu_tot) ** 2
    flat = math.sqrt(math.log1p(target / K))
    if (s == s[0]).all():
        if flat > MU_STEP_CAP:
            raise BudgetOverflow(top, flat)
        return flat / float(s[0])

    def residual(mu0: float) -> float:
        return float(np.expm1(np.square(mu0 * s)).sum()) - target

    cap = MU_STEP_CAP / float(s[top])
    if residual(cap) < 0:
        raise BudgetOverflow(top, MU_STEP_CAP)
    lo, hi = 0.0, min(flat, cap)
    while residual(hi) < 0:
        hi = min(2.0 * hi, cap)
    mu0 = _bisect(lambda m: residual(m) < 0, lo, hi, rtol=1e-15)
    if abs(residual(mu0)) > 1e-10 * target:
        raise ArithmeticError("budget equation residual failed to converge")
    return mu0


@dataclass(frozen=True)
class PrivacySpec:
    """Resolved end-to-end privacy target for a K-step run over J-sample shards."""

    epsilon: float
    delta: float
    J: int
    K: int
    mu_tot: float

    @classmethod
    def resolve(cls, epsilon: float, delta: float, J: int, K: int) -> "PrivacySpec":
        """Solve for mu_tot and verify the transfer round-trips."""
        mu_tot = mu_tot_from_eps_delta(epsilon, delta)
        back = delta_from_mu_eps(mu_tot, epsilon)
        if abs(back - delta) > 1e-9:
            raise ArithmeticError(
                f"budget transfer failed to round-trip: delta {delta:g} -> {back:g}"
            )
        return cls(epsilon=epsilon, delta=delta, J=J, K=K, mu_tot=mu_tot)
