"""Per-iteration clipping bounds, step budgets, and noise levels.

Four named policies share one parametrization: the clip bound decays as
C_k = C0 * rho_c^(-k/K) and the per-step GDP budget grows as
mu_k = mu0 * rho_mu^(k/K), with either axis frozen by setting its rate to 1.

* ``dyn``      both axes move; mu0 solves the composition equation.
* ``dyn-clip`` only the clip bound decays; the budget is flat.
* ``dyn-mu``   only the budget grows; the clip bound is flat.
* ``const``    both flat (the classic fixed-noise baseline).

Every variant injects noise with standard deviation sigma_k = C_k / mu_k,
which by construction composes exactly to the requested total budget.  The
separate general form accepts arbitrary clip/noise-shape profiles and
calibrates one common multiplier from the linearized composition bound
instead; that route is conservative rather than exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .accountant import (
    CompositionLedger,
    PrivacySpec,
    noise_scale_general,
    solve_mu0,
    uniform_budget,
)

VARIANT_DYN = "dyn"
VARIANT_DYN_CLIP = "dyn-clip"
VARIANT_DYN_MU = "dyn-mu"
VARIANT_CONST = "const"
VARIANTS = (VARIANT_DYN, VARIANT_DYN_CLIP, VARIANT_DYN_MU, VARIANT_CONST)

# Which axes decay/grow under each variant.
_DYNAMIC_CLIP = {VARIANT_DYN, VARIANT_DYN_CLIP}
_DYNAMIC_MU = {VARIANT_DYN, VARIANT_DYN_MU}


@dataclass
class NoiseSchedule:
    """Precomputed (C_k, mu_k, sigma_k) triples for a K-step run.

    ``clip0`` is the initial bound for decaying-clip variants and the flat
    bound otherwise; ``mu0`` likewise is the initial or flat step budget.
    Rates are stored as 1.0 on frozen axes so one formula covers all four
    variants.  Arrays are computed once and marked read-only.
    """

    variant: str
    K: int
    clip0: float
    rho_c: float
    rho_mu: float
    mu0: float
    _clip: np.ndarray = field(init=False, repr=False)
    _budget: np.ndarray = field(init=False, repr=False)
    _sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown schedule variant {self.variant!r}")
        if self.K < 1:
            raise ValueError("need at least one step")
        if self.clip0 <= 0 or self.mu0 <= 0:
            raise ValueError("clip bound and step budget must be positive")
        if self.rho_c < 1 or self.rho_mu < 1:
            raise ValueError("rates must be at least 1")
        fractions = np.arange(self.K) / self.K
        self._clip = self.clip0 * self.rho_c**-fractions
        self._budget = self.mu0 * self.rho_mu**fractions
        self._sigma = self._clip / self._budget
        for arr in (self._clip, self._budget, self._sigma):
            arr.setflags(write=False)

    def clip_bound_at(self, k: int) -> float:
        return float(self._clip[k])

    def budget_at(self, k: int) -> float:
        return float(self._budget[k])

    def sigma_at(self, k: int) -> float:
        """Noise standard deviation at step k, always C_k / mu_k."""
        return float(self._sigma[k])

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (C_k, mu_k, sigma_k) for every step."""
        return self._clip, self._budget, self._sigma

    def as_ledger(self, J: int) -> CompositionLedger:
        return CompositionLedger(step_budgets=self._budget, sampling_prob=1.0 / J)

    def table_csv(self) -> str:
        """Audit dump of the full schedule, one row per step."""
        lines = ["k,C_k,mu_k,sigma_k"]
        rows = zip(self._clip.tolist(), self._budget.tolist(), self._sigma.tolist())
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
    return NoiseSchedule(
        variant=variant,
        K=privacy.K,
        clip0=clip0,
        rho_c=clip_rate,
        rho_mu=budget_rate,
        mu0=mu0,
    )


@dataclass
class GeneralSchedule:
    """Arbitrary clip/noise-shape profile with one common noise multiplier.

    Step-k noise has standard deviation ``noise_scale * shape[k]``; the
    multiplier comes from the linearized composition bound, so the realized
    total budget is at most the requested one (conservative direction) while
    every implied step budget stays within the linearization regime.
    """

    K: int
    clips: np.ndarray
    shapes: np.ndarray
    noise_scale: float
    _sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.clips = np.asarray(self.clips, dtype=float)
        self.shapes = np.asarray(self.shapes, dtype=float)
        if len(self.clips) != self.K or len(self.shapes) != self.K:
            raise ValueError("profiles must have one entry per step")
        self._sigma = self.noise_scale * self.shapes
        for arr in (self.clips, self.shapes, self._sigma):
            arr.setflags(write=False)

    def clip_bound_at(self, k: int) -> float:
        return float(self.clips[k])

    def budget_at(self, k: int) -> float:
        """Implied per-step GDP budget C_k / sigma_k."""
        return float(self.clips[k] / self._sigma[k])

    def sigma_at(self, k: int) -> float:
        return float(self._sigma[k])

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(C_k, implied mu_k, sigma_k) for every step."""
        return self.clips, self.clips / self._sigma, self._sigma

    def as_ledger(self, J: int) -> CompositionLedger:
        return CompositionLedger(step_budgets=self.arrays()[1], sampling_prob=1.0 / J)


def build_general_schedule(clip_bounds, noise_shape, privacy: PrivacySpec) -> GeneralSchedule:
    """Calibrate a general profile against a privacy target."""
    clips = np.asarray(clip_bounds, dtype=float)
    shapes = np.asarray(noise_shape, dtype=float)
    if len(clips) != privacy.K:
        raise ValueError("profile length must match the step count")
    scale = noise_scale_general(clips, shapes, privacy.J, privacy.mu_tot)
    return GeneralSchedule(K=privacy.K, clips=clips, shapes=shapes, noise_scale=scale)
