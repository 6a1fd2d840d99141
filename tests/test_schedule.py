import math
import warnings

import numpy as np
import pytest

from pushdp.accountant import (
    PrivacySpec,
    RegimeWarning,
    compose_general,
    solve_mu0,
    uniform_budget,
)
from pushdp.schedule import VARIANTS, NoiseSchedule, build_general_schedule, build_schedule


def quiet_compose(step_budgets, sampling_prob):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return compose_general(step_budgets, sampling_prob)


@pytest.fixture(scope="module")
def privacy():
    return PrivacySpec.resolve(0.3, 1e-4, 250, 2000)


def test_clip_bound_halfway_decay(privacy):
    sched = build_schedule("dyn", privacy, clip0=7.0, rho_c=4.0, rho_mu=4.0)
    k = privacy.K // 2
    # 7 * 4^(-1/2) = 3.5
    assert sched.clip[k] == pytest.approx(3.5, rel=1e-12)


def test_flat_variants_keep_constant_clip(privacy):
    for variant in ("dyn-mu", "const"):
        sched = build_schedule(variant, privacy, clip0=2.0, rho_mu=4.0)
        assert sched.clip[0] == 2.0
        assert sched.clip[privacy.K - 1] == 2.0


def test_flat_budget_variants_use_closed_form(privacy):
    expected = uniform_budget(privacy.mu_tot, privacy.J, privacy.K)
    for variant in ("dyn-clip", "const"):
        sched = build_schedule(variant, privacy, clip0=2.0, rho_c=4.0)
        assert sched.mu0 == expected
        assert sched.budget[0] == expected
        assert sched.budget[privacy.K - 1] == expected


def test_growing_budget_variants_solve_composition(privacy):
    expected = solve_mu0(privacy.mu_tot, privacy.J, privacy.K, 4.0)
    for variant in ("dyn", "dyn-mu"):
        sched = build_schedule(variant, privacy, clip0=2.0, rho_c=4.0, rho_mu=4.0)
        assert sched.mu0 == expected


def test_sigma_is_clip_over_budget(privacy):
    for variant in VARIANTS:
        sched = build_schedule(variant, privacy, clip0=2.0, rho_c=4.0, rho_mu=4.0)
        for k in (0, 1, privacy.K // 3, privacy.K - 1):
            ratio = sched.clip[k] / sched.budget[k]
            assert sched.sigma[k] == ratio
            assert sched.sigma[k] * sched.budget[k] == pytest.approx(sched.clip[k], rel=1e-12)


def test_sigma_closed_forms(privacy):
    K = privacy.K
    ks = np.array([0, 17, K // 2, K - 1])
    dyn = build_schedule("dyn", privacy, clip0=2.0, rho_c=4.0, rho_mu=4.0)
    for k in ks:
        expected = (2.0 / dyn.mu0) * (4.0 * 4.0) ** (-k / K)
        assert dyn.sigma[k] == pytest.approx(expected, rel=1e-12)
    dyn_clip = build_schedule("dyn-clip", privacy, clip0=2.0, rho_c=4.0)
    for k in ks:
        expected = (2.0 / dyn_clip.mu0) * 4.0 ** (-k / K)
        assert dyn_clip.sigma[k] == pytest.approx(expected, rel=1e-12)
    dyn_mu = build_schedule("dyn-mu", privacy, clip0=2.0, rho_mu=4.0)
    for k in ks:
        expected = (2.0 / dyn_mu.mu0) * 4.0 ** (-k / K)
        assert dyn_mu.sigma[k] == pytest.approx(expected, rel=1e-12)
    const = build_schedule("const", privacy, clip0=2.0)
    sigmas = {float(const.sigma[k]) for k in ks}
    assert sigmas == {2.0 / const.mu0}


def test_dyn_sigma_decay_ratio(privacy):
    K = privacy.K
    sched = build_schedule("dyn", privacy, clip0=2.0, rho_c=4.0, rho_mu=4.0)
    ratio = sched.sigma[K - 1] / sched.sigma[0]
    assert ratio == pytest.approx(16.0 ** (-(K - 1) / K), rel=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_composes_to_the_requested_total(variant, privacy):
    sched = build_schedule(variant, privacy, clip0=2.0, rho_c=4.0, rho_mu=4.0)
    composed = quiet_compose(sched.budget, 1.0 / privacy.J)
    assert composed == pytest.approx(privacy.mu_tot, rel=1e-8)


@pytest.mark.parametrize("J,K,rho", [(100, 200, 2.0), (1000, 2000, 4.0)])
def test_composition_consistency_across_scales(J, K, rho):
    privacy = PrivacySpec.resolve(1.0, 1e-4, J, K)
    sched = build_schedule("dyn", privacy, clip0=2.0, rho_c=rho, rho_mu=rho)
    composed = quiet_compose(sched.budget, 1.0 / J)
    assert composed == pytest.approx(privacy.mu_tot, rel=1e-8)


def test_dyn_approaches_const_in_the_flat_limit(privacy):
    dyn = build_schedule(
        "dyn", privacy, clip0=2.0, rho_c=1.0 + 1e-12, rho_mu=1.0 + 1e-9
    )
    const = build_schedule("const", privacy, clip0=2.0)
    for k in (0, privacy.K // 2, privacy.K - 1):
        assert dyn.sigma[k] == pytest.approx(const.sigma[k], abs=1e-6)


def test_build_rejects_missing_rates(privacy):
    with pytest.raises(ValueError):
        build_schedule("dyn", privacy, clip0=2.0, rho_c=4.0)  # no rho_mu
    with pytest.raises(ValueError):
        build_schedule("dyn-clip", privacy, clip0=2.0)  # no rho_c
    with pytest.raises(ValueError):
        build_schedule("dyn-mu", privacy, clip0=2.0, rho_mu=1.0)  # rate not above 1
    with pytest.raises(ValueError):
        build_schedule("sawtooth", privacy, clip0=2.0)


def test_const_ignores_rates(privacy):
    a = build_schedule("const", privacy, clip0=2.0)
    b = build_schedule("const", privacy, clip0=2.0, rho_c=4.0, rho_mu=4.0)
    assert a.sigma[0] == b.sigma[0]
    assert a.rho_c == 1.0 and a.rho_mu == 1.0


def test_schedule_arrays_are_read_only(privacy):
    sched = build_schedule("const", privacy, clip0=2.0)
    for name in ("clip", "budget", "sigma"):
        with pytest.raises(ValueError):
            getattr(sched, name)[0] = 99.0
        with pytest.raises(AttributeError):
            setattr(sched, name, np.zeros(privacy.K))


def test_schedule_copies_its_arrays_and_checks_their_shapes():
    clip = np.ones(4)
    sched = NoiseSchedule(variant="general", clip=clip, budget=np.ones(4), sigma=np.ones(4))
    clip[0] = 5.0
    assert sched.clip[0] == 1.0 and sched.K == 4
    with pytest.raises(ValueError, match="equal-length"):
        NoiseSchedule(variant="general", clip=np.ones(4), budget=np.ones(3), sigma=np.ones(4))
    with pytest.raises(ValueError, match="equal-length"):
        NoiseSchedule(variant="general", clip=[], budget=[], sigma=[])
    with pytest.raises(ValueError, match="equal-length"):
        NoiseSchedule(variant="general", clip=1.0, budget=1.0, sigma=1.0)


def test_table_csv_shape(privacy):
    sched = build_schedule("const", privacy, clip0=2.0)
    lines = sched.table_csv().strip().split("\n")
    assert lines[0] == "k,C_k,mu_k,sigma_k"
    assert len(lines) == privacy.K + 1


def test_table_csv_cells_are_plain_floats(privacy):
    sched = build_schedule("dyn", privacy, clip0=2.0, rho_c=4.0, rho_mu=4.0)
    clip, budget, sigma = sched.clip, sched.budget, sched.sigma
    for k, line in enumerate(sched.table_csv().splitlines()[1:]):
        cells = line.split(",")
        assert cells[0] == str(k)
        for cell, want in zip(cells[1:], (clip[k], budget[k], sigma[k]), strict=True):
            assert float(cell) == want and repr(float(cell)) == cell


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("key", ["c0", "rho_c", "rho_mu"])
def test_build_rejects_nonfinite_or_nonpositive_inputs(privacy, key, bad):
    kwargs = {"clip0": 2.0, "rho_c": 4.0, "rho_mu": 4.0}
    kwargs["clip0" if key == "c0" else key] = bad
    with pytest.raises(ValueError, match=f"schedule.{key} must be finite and positive"):
        build_schedule("dyn", privacy, **kwargs)


def test_general_schedule_flat_profile_matches_closed_form():
    privacy = PrivacySpec.resolve(1.0, 1e-4, 10, 50)
    # overwrite mu_tot with 1.0 to hit the worked example scale = 1
    privacy = PrivacySpec(1.0, 1e-4, 10, 50, 1.0)
    sched = build_general_schedule(np.ones(50), np.ones(50), privacy)
    assert sched.variant == "general" and sched.K == 50
    assert sched.mu0 is None and sched.clip0 is None
    np.testing.assert_allclose(sched.sigma, 1.0, rtol=1e-14)
    np.testing.assert_allclose(sched.budget, 1.0, rtol=1e-14)
    assert np.array_equal(sched.clip, np.ones(50))


def test_general_schedule_closed_form_scale():
    # scale = sqrt(2 * sum_k C_k^2 / s_k^2) / (J * mu_tot), sigma_k = scale * s_k
    privacy = PrivacySpec(1.0, 1e-4, 4, 3, 0.5)
    clips, shapes = np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.5, 2.0])
    sched = build_general_schedule(clips, shapes, privacy)
    scale = math.sqrt(2.0 * (1.0 + 16.0 + 2.25)) / (4 * 0.5)
    np.testing.assert_allclose(sched.sigma, scale * shapes, rtol=1e-14)
    assert np.array_equal(sched.budget, clips / sched.sigma)


def test_general_schedule_is_conservative():
    # linearized calibration must not exceed the requested budget while
    # every implied step budget stays in the linearization regime
    privacy = PrivacySpec.resolve(0.3, 1e-4, 250, 500)
    clips = 2.0 * 4.0 ** (-np.arange(500) / 500)
    shapes = clips / clips[0]  # noise tracking the clip bound keeps budgets flat
    sched = build_general_schedule(clips, shapes, privacy)
    assert sched.budget.max() <= 1.0
    assert quiet_compose(sched.budget, 1.0 / privacy.J) <= privacy.mu_tot


def test_general_schedule_rejects_wrong_length():
    privacy = PrivacySpec.resolve(0.3, 1e-4, 10, 50)
    with pytest.raises(ValueError):
        build_general_schedule(np.ones(49), np.ones(49), privacy)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_general_schedule_rejects_nonfinite_or_nonpositive_clip(bad):
    # a NaN bound used to give sigma_k = nan at every step
    privacy = PrivacySpec.resolve(0.3, 1e-4, 10, 5)
    with pytest.raises(ValueError, match="clip bounds must be finite and positive"):
        build_general_schedule([1.0, bad, 1.0, 1.0, 1.0], np.ones(5), privacy)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_general_schedule_rejects_nonfinite_or_nonpositive_noise_shape(bad):
    # an infinite shape entry used to give sigma_1 = inf and mu_1 = 0
    privacy = PrivacySpec.resolve(0.3, 1e-4, 10, 5)
    with pytest.raises(ValueError, match="noise shape must be finite and positive"):
        build_general_schedule(np.ones(5), [1.0, bad, 1.0, 1.0, 1.0], privacy)
