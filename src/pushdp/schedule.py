"""Per-iteration clipping bounds, step budgets, and noise levels.

A schedule is the triple of per-step sequences (C_k, mu_k, sigma_k) with
sigma_k = C_k / mu_k; the accountant composes the budgets and the round loop
reads all three.  One type, ``NoiseSchedule``, holds them; one builder fills it.

``build_schedule`` resolves four named variants that share one
parametrization: the clip bound decays as C_k = C0 * rho_c^(-k/K) and the
per-step GDP budget grows as mu_k = mu0 * rho_mu^(k/K), with either axis
frozen by setting its rate to 1.

* ``dyn``      both axes move.
* ``dyn-clip`` only the clip bound decays; the budget is flat.
* ``dyn-mu``   only the budget grows; the clip bound is flat.
* ``const``    both flat (the classic fixed-noise baseline).

For every variant mu0 comes from the accountant's one solver, ``solve_mu0``,
applied to the budget shape rho_mu^(k/K), so each composes exactly to the
requested total budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accountant import PrivacySpec, solve_mu0
from .metrics import csv_text

VARIANTS = ("dyn", "dyn-clip", "dyn-mu", "const")

# Which axes decay/grow under each variant.
_DYNAMIC_CLIP = {"dyn", "dyn-clip"}
_DYNAMIC_MU = {"dyn", "dyn-mu"}


@dataclass(frozen=True)
class NoiseSchedule:
    """Read-only (C_k, mu_k, sigma_k) arrays for a K-step run, plus the rates that
    shaped them, 1.0 on frozen axes.  ``clip[0]`` and ``budget[0]`` are the initial
    (or flat) clip bound and step budget."""

    clip: np.ndarray
    budget: np.ndarray
    sigma: np.ndarray
    rho_c: float
    rho_mu: float

    def __post_init__(self):
        for name in ("clip", "budget", "sigma"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        shape = self.sigma.shape
        if len(shape) != 1 or not shape[0] or not self.clip.shape == self.budget.shape == shape:
            raise ValueError("clip, budget and sigma must be equal-length 1-D arrays")

    @property
    def K(self) -> int:
        return len(self.sigma)

    def table_csv(self) -> str:
        """Audit dump of the full schedule, one row per step."""
        return csv_text("k,C_k,mu_k,sigma_k", (range(self.K), self.clip, self.budget, self.sigma))


def build_schedule(
    variant: str,
    privacy: PrivacySpec,
    clip0: float,
    rho_c: float | None = None,
    rho_mu: float | None = None,
) -> NoiseSchedule:
    """Resolve a named variant against a privacy target.

    The initial step budget scales the budget shape, growing or flat, to the
    total budget.  A rate is required exactly when its axis is dynamic (and
    must exceed 1); rates on frozen axes are ignored.  The clip bound and any rate given must be
    finite and positive, or the error names the config key.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown schedule variant {variant!r}")
    for key, value in (("c0", clip0), ("rho_c", rho_c), ("rho_mu", rho_mu)):
        if value is not None and not (np.isfinite(value) and value > 0):
            raise ValueError(f"schedule.{key} must be finite and positive, got {value!r}")
    if variant in _DYNAMIC_CLIP:
        if rho_c is None or rho_c <= 1:
            raise ValueError(f"variant {variant!r} needs a clip decay rate above 1")
        clip_rate = rho_c
    else:
        clip_rate = 1.0
    if variant in _DYNAMIC_MU:
        if rho_mu is None or rho_mu <= 1:
            raise ValueError(f"variant {variant!r} needs a budget growth rate above 1")
        budget_rate = rho_mu
    else:
        budget_rate = 1.0
    fractions = np.arange(privacy.K) / privacy.K
    clip = clip0 * clip_rate**-fractions
    shape = budget_rate**fractions
    budget = solve_mu0(privacy.mu_tot, privacy.J, shape) * shape
    return NoiseSchedule(
        clip=clip, budget=budget, sigma=clip / budget, rho_c=clip_rate, rho_mu=budget_rate
    )

