"""Per-iteration clipping bounds, step budgets, and noise levels.

A schedule is the triple of per-step sequences (C_k, mu_k, sigma_k) with
sigma_k = C_k / mu_k; the accountant composes the budgets and the round loop
reads all three.  One type, ``NoiseSchedule``, holds them; two builders fill it.

``build_schedule`` resolves four named variants that share one
parametrization: the clip bound decays as C_k = C0 * rho_c^(-k/K) and the
per-step GDP budget grows as mu_k = mu0 * rho_mu^(k/K), with either axis
frozen by setting its rate to 1.

* ``dyn``      both axes move; mu0 solves the composition equation.
* ``dyn-clip`` only the clip bound decays; the budget is flat.
* ``dyn-mu``   only the budget grows; the clip bound is flat.
* ``const``    both flat (the classic fixed-noise baseline).

By construction these compose exactly to the requested total budget.
``build_general_schedule`` accepts arbitrary clip/noise-shape profiles and
calibrates one common multiplier from the linearized composition bound
instead; that route is conservative rather than exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accountant import PrivacySpec, noise_scale_general, solve_mu0, uniform_budget

VARIANTS = ("dyn", "dyn-clip", "dyn-mu", "const")

# Which axes decay/grow under each variant.
_DYNAMIC_CLIP = {"dyn", "dyn-clip"}
_DYNAMIC_MU = {"dyn", "dyn-mu"}


@dataclass(frozen=True)
class NoiseSchedule:
    """Read-only (C_k, mu_k, sigma_k) arrays for a K-step run, plus provenance.

    ``clip0`` is the initial bound for decaying-clip variants and the flat
    bound otherwise; ``mu0`` likewise is the initial or flat step budget.
    Rates are 1.0 on frozen axes.  A general schedule has no such
    parameters and leaves them None.
    """

    variant: str
    clip: np.ndarray
    budget: np.ndarray
    sigma: np.ndarray
    clip0: float | None = None
    rho_c: float | None = None
    rho_mu: float | None = None
    mu0: float | None = None

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
        lines = ["k,C_k,mu_k,sigma_k"]
        rows = zip(self.clip.tolist(), self.budget.tolist(), self.sigma.tolist())
        lines += [f"{k},{c!r},{mu!r},{s!r}" for k, (c, mu, s) in enumerate(rows)]
        return "\n".join(lines) + "\n"


def build_schedule(
    variant: str,
    privacy: PrivacySpec,
    clip0: float,
    rho_c: float | None = None,
    rho_mu: float | None = None,
) -> NoiseSchedule:
    """Resolve a named variant against a privacy target.

    Dynamic-budget variants solve the composition equation for the initial
    step budget; flat-budget variants use the closed form.  A rate is
    required exactly when its axis is dynamic (and must exceed 1); rates on
    frozen axes are ignored.  The clip bound and any rate given must be
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
        mu0 = solve_mu0(privacy.mu_tot, privacy.J, privacy.K, rho_mu)
        budget_rate = rho_mu
    else:
        mu0 = uniform_budget(privacy.mu_tot, privacy.J, privacy.K)
        budget_rate = 1.0
    fractions = np.arange(privacy.K) / privacy.K
    clip = clip0 * clip_rate**-fractions
    budget = mu0 * budget_rate**fractions
    return NoiseSchedule(
        variant=variant, clip=clip, budget=budget, sigma=clip / budget,
        clip0=clip0, rho_c=clip_rate, rho_mu=budget_rate, mu0=mu0,
    )


def build_general_schedule(clip_bounds, noise_shape, privacy: PrivacySpec) -> NoiseSchedule:
    """Calibrate an arbitrary clip/noise-shape profile against a privacy target.

    Step-k noise has standard deviation ``scale * noise_shape[k]``; the common
    multiplier comes from the linearized composition bound, so the realized
    total budget is at most the requested one (conservative direction) while
    every implied step budget mu_k = C_k / sigma_k stays within the
    linearization regime.  Clip bounds and shape entries must be finite and
    positive, or a ValueError says which profile is at fault.
    """
    clips = np.asarray(clip_bounds, dtype=float)
    shapes = np.asarray(noise_shape, dtype=float)
    if len(clips) != privacy.K:
        raise ValueError("profile length must match the step count")
    sigma = noise_scale_general(clips, shapes, privacy.J, privacy.mu_tot) * shapes
    return NoiseSchedule(variant="general", clip=clips, budget=clips / sigma, sigma=sigma)
