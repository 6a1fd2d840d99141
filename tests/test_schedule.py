import dataclasses
import math
import warnings

import numpy as np
import pytest

from pushdp.accountant import (
    MU_STEP_CAP,
    BudgetOverflow,
    PrivacySpec,
    RegimeWarning,
    compose_general,
    solve_mu0,
)
from pushdp.schedule import NONPRIVATE, VARIANTS, NoiseSchedule, build_schedule


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
    expected = math.sqrt(math.log1p((privacy.J * privacy.mu_tot) ** 2 / privacy.K))
    assert solve_mu0(privacy.mu_tot, privacy.J, np.ones(privacy.K)) == expected
    for variant in ("dyn-clip", "const"):
        sched = build_schedule(variant, privacy, clip0=2.0, rho_c=4.0)
        assert sched.budget[0] == expected
        assert sched.budget[privacy.K - 1] == expected


def test_growing_budget_variants_solve_composition(privacy):
    expected = solve_mu0(privacy.mu_tot, privacy.J, 4.0 ** (np.arange(privacy.K) / privacy.K))
    for variant in ("dyn", "dyn-mu"):
        sched = build_schedule(variant, privacy, clip0=2.0, rho_c=4.0, rho_mu=4.0)
        assert sched.budget[0] == expected


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
        expected = (2.0 / dyn.budget[0]) * (4.0 * 4.0) ** (-k / K)
        assert dyn.sigma[k] == pytest.approx(expected, rel=1e-12)
    dyn_clip = build_schedule("dyn-clip", privacy, clip0=2.0, rho_c=4.0)
    for k in ks:
        expected = (2.0 / dyn_clip.budget[0]) * 4.0 ** (-k / K)
        assert dyn_clip.sigma[k] == pytest.approx(expected, rel=1e-12)
    dyn_mu = build_schedule("dyn-mu", privacy, clip0=2.0, rho_mu=4.0)
    for k in ks:
        expected = (2.0 / dyn_mu.budget[0]) * 4.0 ** (-k / K)
        assert dyn_mu.sigma[k] == pytest.approx(expected, rel=1e-12)
    const = build_schedule("const", privacy, clip0=2.0)
    sigmas = {float(const.sigma[k]) for k in ks}
    assert sigmas == {2.0 / float(const.budget[0])}


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
    message = r"^schedule\.variant must be one of \('dyn', 'dyn-clip', 'dyn-mu', 'const', 'nonprivate'\)$"
    for variant in ("sawtooth", "Dyn", ""):
        with pytest.raises(ValueError, match=message):
            build_schedule(variant, privacy, clip0=2.0)


def test_the_nonprivate_variant_has_no_schedule(privacy):
    # declared beside the private variants, it reads neither the target nor the clip bound and rates
    assert build_schedule("nonprivate", None, clip0=2.0) is None
    assert build_schedule(NONPRIVATE, privacy, clip0=-1.0, rho_c=0.5) is None
    assert NONPRIVATE not in VARIANTS


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


def test_schedule_copies_its_arrays_and_checks_their_shapes(privacy):
    clip = np.ones(4)
    provenance = dict(rho_c=1.0, rho_mu=1.0, privacy=dataclasses.replace(privacy, K=4))
    sched = NoiseSchedule(clip=clip, budget=np.ones(4), **provenance)
    clip[0] = 5.0
    assert sched.clip[0] == 1.0 and len(sched.sigma) == sched.privacy.K == 4
    with pytest.raises(ValueError, match="equal-length"):
        NoiseSchedule(clip=np.ones(4), budget=np.ones(3), **provenance)
    with pytest.raises(ValueError, match="equal-length"):
        NoiseSchedule(clip=[], budget=[], **provenance)
    with pytest.raises(ValueError, match="equal-length"):
        NoiseSchedule(clip=1.0, budget=1.0, **provenance)
    # the arrays are as long as the run their privacy target was solved for
    for steps in (3, 5):
        with pytest.raises(ValueError, match=f"^the schedule has {steps} steps, but its privacy target has K = 4$"):
            NoiseSchedule(clip=np.ones(steps), budget=np.ones(steps), **provenance)


@pytest.mark.parametrize("variant", VARIANTS)
def test_claim_is_the_target_and_the_schedule_it_was_solved_for(privacy, variant):
    sched = build_schedule(variant, privacy, clip0=2.0, rho_c=4.0, rho_mu=4.0)
    assert sched.privacy is privacy
    assert list(sched.claim().items()) == [
        ("epsilon", 0.3), ("delta", 1e-4), ("mu_tot", privacy.mu_tot), ("mu0", sched.budget[0]),
        ("c0", 2.0), ("rho_c", sched.rho_c), ("rho_mu", sched.rho_mu),
    ]
    assert all(type(value) is float for value in sched.claim().values())


@pytest.mark.parametrize("variant", VARIANTS)
def test_schedule_derives_each_noise_level_from_its_clip_bound_and_budget(privacy, variant):
    sched = build_schedule(variant, privacy, clip0=2.0, rho_c=4.0, rho_mu=4.0)
    assert sched.sigma.tobytes() == (sched.clip / sched.budget).tobytes()
    # the noise level is no input, so no schedule carries one other than C_k / mu_k
    with pytest.raises(TypeError):
        NoiseSchedule(
            clip=sched.clip, budget=sched.budget, sigma=sched.sigma, rho_c=1.0, rho_mu=1.0, privacy=privacy
        )
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(sched, sigma=2 * sched.sigma)


@pytest.mark.parametrize(
    "clip,budget", [(1e308, 1e-10), (1e-300, 1e300)], ids=["overflow", "underflow"]
)
def test_schedule_refuses_a_noise_level_out_of_range_of_finite_positive_inputs(privacy, clip, budget):
    message = "^the schedule's noise levels must be finite and positive$"
    with pytest.raises(ValueError, match=message):
        NoiseSchedule(
            clip=[1.0, clip], budget=[1.0, budget], rho_c=1.0, rho_mu=1.0,
            privacy=dataclasses.replace(privacy, K=2),
        )


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


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_checks_the_step_budget_cap(variant):
    # one step over 10^15 samples asks for a flat budget of about 8.04, over the cap
    privacy = PrivacySpec.resolve(0.3, 1e-4, 10**15, 1)
    assert math.sqrt(math.log1p((privacy.J * privacy.mu_tot) ** 2)) > MU_STEP_CAP
    with pytest.raises(BudgetOverflow):
        build_schedule(variant, privacy, 2.0, rho_c=4.0, rho_mu=4.0)


# (mu0, sigma_0, sigma_{K-1}) at eps 0.3, delta 1e-4, c0 2, rho_c = rho_mu = 4, frozen
# before the budget solvers were merged into one; every digit must stay
FROZEN_SCHEDULES = {
    (250, 2000): {
        "dyn": ("0.22949790922000968", 8.71467634192121, 0.5454228641530606),
        "dyn-clip": ("0.5562227923065701", 3.595681492493877, 0.8995436732400514),
        "dyn-mu": ("0.22949790922000968", 8.71467634192121, 2.1801797473092863),
        "const": ("0.5562227923065701", 3.595681492493877, 3.595681492493877),
    },
    (250, 200): {
        "dyn": ("0.4546711423986569", 4.398783677910208, 0.2787617756101691),
        "dyn-clip": ("1.237602771572725", 1.616027408744757, 0.4068169420698277),
        "dyn-mu": ("0.4546711423986569", 4.398783677910208, 1.1073449094926475),
        "const": ("1.237602771572725", 1.616027408744757, 1.616027408744757),
    },
    (64, 20): {
        "dyn": ("0.4292036493536825", 4.659792625276382, 0.3345435077051435),
        "dyn-clip": ("1.1030694562827381", 1.813122454446206, 0.48581413275102814),
        "dyn-mu": ("0.4292036493536825", 4.659792625276382, 1.2485605191733882),
        "const": ("1.1030694562827381", 1.813122454446206, 1.813122454446206),
    },
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("J,K", list(FROZEN_SCHEDULES), ids=["readme", "logistic-n20", "net-n256"])
def test_schedules_match_frozen_values(J, K, variant):
    sched = build_schedule(variant, PrivacySpec.resolve(0.3, 1e-4, J, K), 2.0, rho_c=4.0, rho_mu=4.0)
    mu0, sigma_first, sigma_last = FROZEN_SCHEDULES[J, K][variant]
    assert repr(float(sched.budget[0])) == mu0
    assert float(sched.sigma[0]) == sigma_first and float(sched.sigma[-1]) == sigma_last
