"""Per-iteration clipping bounds, step budgets, and noise levels.

A schedule is the triple of per-step sequences (C_k, mu_k, sigma_k) with sigma_k = C_k / mu_k;
the accountant composes the budgets and the round loop reads all three.  ``NoiseSchedule`` holds
them and the target they were solved for, whose ``claim`` every output reads; one builder fills it.

``build_schedule`` resolves four named variants that share one
parametrization: the clip bound decays as C_k = C0 * rho_c^(-k/K) and the
per-step GDP budget grows as mu_k = mu0 * rho_mu^(k/K), with either axis
frozen by setting its rate to 1.

* ``dyn``      both axes move.
* ``dyn-clip`` only the clip bound decays; the budget is flat.
* ``dyn-mu``   only the budget grows; the clip bound is flat.
* ``const``    both flat (the classic fixed-noise baseline).

For every variant mu0 comes from the accountant's one solver, ``solve_mu0``,
applied to the budget shape rho_mu^(k/K), so each composes to the requested
total budget under the accountant's CLT composition, which under-reports delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .accountant import PrivacySpec, solve_mu0
from .metrics import csv_text

# variant -> (clip bound decays, budget grows)
_DYNAMIC = {
    "dyn": (True, True), "dyn-clip": (True, False), "dyn-mu": (False, True), "const": (False, False)
}
VARIANTS = tuple(_DYNAMIC)


@dataclass(frozen=True)
class NoiseSchedule:
    """Read-only (C_k, mu_k, sigma_k) arrays for a K-step run, built from C_k and mu_k with
    sigma_k = C_k / mu_k derived, all three finite and positive, the rates that shaped them,
    1.0 on frozen axes, and the target ``privacy`` they were solved for, with K = privacy.K."""

    clip: np.ndarray
    budget: np.ndarray
    sigma: np.ndarray = field(init=False)
    rho_c: float
    rho_mu: float
    privacy: PrivacySpec

    def __post_init__(self):
        clip, budget = np.array(self.clip, dtype=float), np.array(self.budget, dtype=float)
        if clip.ndim != 1 or not clip.size or clip.shape != budget.shape:
            raise ValueError("clip and budget must be equal-length 1-D arrays")
        if clip.size != self.privacy.K:
            raise ValueError(f"the schedule has {clip.size} steps, but its privacy target has K = {self.privacy.K}")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
            sigma = clip / budget
        for values, what in ((clip, "clip bounds"), (budget, "step budgets"), (sigma, "noise levels")):
            if not (np.isfinite(values) & (values > 0)).all():  # so privacy fails closed
                raise ValueError(f"the schedule's {what} must be finite and positive")
        for name, values in zip(("clip", "budget", "sigma"), (clip, budget, sigma)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def claim(self) -> dict:
        """The leg's claim in the metrics CSV's order: its target, the initial (or flat) mu_k and C_k, the rates."""
        return dict(epsilon=self.privacy.epsilon, delta=self.privacy.delta, mu_tot=self.privacy.mu_tot,
                    mu0=float(self.budget[0]), c0=float(self.clip[0]), rho_c=self.rho_c, rho_mu=self.rho_mu)

    def table_csv(self) -> str:
        """Audit dump of the full schedule, one row per step."""
        return csv_text("k,C_k,mu_k,sigma_k", (range(self.privacy.K), self.clip, self.budget, self.sigma))


def build_schedule(
    variant: str,
    privacy: PrivacySpec,
    clip0: float,
    rho_c: float | None = None,
    rho_mu: float | None = None,
) -> NoiseSchedule:
    """Resolve a named variant against a privacy target.

    The initial step budget scales the budget shape, growing or flat, to the total budget.
    A rate is required exactly when its axis is dynamic, and must then exceed 1; rates on
    frozen axes are ignored.  The clip bound and any rate given must be finite and positive,
    and together give finite, positive C_k and sigma_k.  Every error names its config key.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown schedule variant {variant!r}")
    for key, value in (("c0", clip0), ("rho_c", rho_c), ("rho_mu", rho_mu)):
        if value is not None and not (np.isfinite(value) and value > 0):
            raise ValueError(f"schedule.{key} must be finite and positive, got {value!r}")
    rates = []
    for dynamic, key, rate, what in zip(
        _DYNAMIC[variant], ("rho_c", "rho_mu"), (rho_c, rho_mu), ("clip decay", "budget growth")
    ):
        if dynamic and (rate is None or rate <= 1):
            got = "unset" if rate is None else repr(rate)
            raise ValueError(
                f"schedule.{key} is {got}, but variant {variant!r} needs a {what} rate above 1"
            )
        rates.append(rate if dynamic else 1.0)
    clip_rate, budget_rate = rates
    fractions = np.arange(privacy.K) / privacy.K
    clip = clip0 * clip_rate**-fractions
    shape = budget_rate**fractions
    budget = solve_mu0(privacy.mu_tot, privacy.J, shape) * shape
    try:
        return NoiseSchedule(clip=clip, budget=budget, rho_c=clip_rate, rho_mu=budget_rate, privacy=privacy)
    except ValueError as exc:  # C_k under- or sigma_k overflowed
        raise ValueError(f"schedule.c0 and its rates: {exc}") from exc

