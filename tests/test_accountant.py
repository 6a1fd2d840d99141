import math

import numpy as np
import pytest

from pushdp.accountant import (
    MU_BRACKET,
    BudgetOverflow,
    NoBracket,
    PrivacySpec,
    RegimeWarning,
    compose_general,
    delta_from_mu_eps,
    gaussian_cdf,
    log_ndtr,
    mu_tot_from_eps_delta,
    noise_scale_general,
    solve_mu0,
    uniform_budget,
)

# 20-digit references computed with mpmath (mp.ncdf at dps=40)
CDF_REFERENCE = [
    (-8.0, 6.2209605742717841235e-16),
    (-3.0, 0.0013498980316300945267),
    (-1.5, 0.066807201268858066004),
    (-0.5, 0.30853753872598689636),
    (0.0, 0.5),
    (0.5, 0.69146246127401310364),
    (1.0, 0.84134474606854294859),
    (2.5, 0.99379033467422386483),
    (6.0, 0.99999999901341235496),
]


@pytest.mark.parametrize("t,expected", CDF_REFERENCE)
def test_gaussian_cdf_against_high_precision_reference(t, expected):
    assert abs(gaussian_cdf(t) - expected) <= 1e-12


def test_gaussian_cdf_symmetry():
    for t in np.linspace(-6, 6, 41):
        assert gaussian_cdf(t) + gaussian_cdf(-t) == pytest.approx(1.0, abs=1e-14)


def test_log_ndtr_against_mpmath():
    import mpmath

    # both sides of the switch to the tail series at t = -20, a log grid out
    # to -1e8, and the arguments delta_from_mu_eps takes at the bisection
    # bracket's ends (t = -eps/mu - mu/2, mu in MU_BRACKET)
    switch = [-20.0, math.nextafter(-20.0, 0.0), math.nextafter(-20.0, -math.inf), -19.5, -20.5]
    bracket = [-eps / mu - mu / 2 for mu in MU_BRACKET for eps in (1e-6, 0.01, 0.3, 1.0)]
    grid = [0.0, *-np.logspace(-12, 8, 201), *np.linspace(-40.0, 0.0, 161), *switch, *bracket]
    for t in map(float, grid):
        assert -1e8 <= t <= 0.0
        with mpmath.workdps(40):
            expected = float(mpmath.log(mpmath.ncdf(t)))
        assert abs(log_ndtr(t) - expected) <= 1e-15 * abs(expected), t


# mpmath references for the (mu, eps) -> delta transfer
DELTA_REFERENCE = [
    (1.0, 1.0, 0.1269367375066439458),
    (1.0, 0.0, 0.38292492254802620728),
    (2.0, 0.5, 0.59918561853393326306),
    (0.5, 3.0, 3.4009117356735288242e-10),
]


@pytest.mark.parametrize("mu,eps,expected", DELTA_REFERENCE)
def test_delta_transfer_reference_values(mu, eps, expected):
    assert delta_from_mu_eps(mu, eps) == pytest.approx(expected, rel=1e-10, abs=1e-20)


def test_delta_vanishes_as_mu_vanishes():
    assert delta_from_mu_eps(1e-9, 1.0) <= 1e-12


def test_delta_monotone_in_mu():
    eps = 0.7
    values = [delta_from_mu_eps(mu, eps) for mu in np.linspace(0.01, 6.0, 80)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_delta_bounds():
    for mu in (0.05, 0.5, 1.5, 4.0):
        for eps in (0.0, 0.3, 1.0, 3.0):
            assert 0.0 <= delta_from_mu_eps(mu, eps) < 1.0


def test_delta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        delta_from_mu_eps(0.0, 1.0)
    with pytest.raises(ValueError):
        delta_from_mu_eps(1.0, -0.5)


@pytest.mark.parametrize("eps", [0.3, 0.7, 1.0, 3.0])
def test_mu_tot_round_trip(eps):
    delta = 1e-4
    mu = mu_tot_from_eps_delta(eps, delta)
    assert abs(delta_from_mu_eps(mu, eps) - delta) <= 1e-9


def test_mu_tot_round_trip_wide_grid():
    for eps in (0.1, 0.5, 2.0, 5.0):
        for delta in (1e-7, 1e-5, 1e-3, 1e-2):
            mu = mu_tot_from_eps_delta(eps, delta)
            assert abs(delta_from_mu_eps(mu, eps) - delta) <= 1e-9


def test_mu_tot_monotone_in_delta():
    eps = 1.0
    mus = [mu_tot_from_eps_delta(eps, d) for d in (1e-6, 1e-4, 1e-2)]
    assert mus[0] < mus[1] < mus[2]


def test_mu_tot_no_bracket():
    # at eps ~ 0 the lower bracket endpoint already leaks delta ~ 4e-9,
    # so a far smaller delta is unreachable
    with pytest.raises(NoBracket):
        mu_tot_from_eps_delta(1e-12, 1e-300)


def test_mu_tot_degenerate_request_still_round_trips():
    delta = 0.99
    mu = mu_tot_from_eps_delta(1e-6, delta)
    assert abs(delta_from_mu_eps(mu, 1e-6) - delta) <= 1e-9


def test_compose_single_step_closed_form():
    # p = 1, one step at mu = 1: sqrt(e - 1), mpmath 1.3108324944320861759
    assert compose_general(np.array([1.0]), 1.0) == pytest.approx(1.3108324944320861759, rel=1e-14)


def test_compose_zero_steps_contribute_nothing():
    with_zeros = compose_general(np.array([0.5, 0.0, 0.0, 0.5]), 0.25)
    assert with_zeros == compose_general(np.array([0.5, 0.5]), 0.25)


def test_compose_scales_with_sampling_probability():
    mus = np.full(10, 0.3)
    a = compose_general(mus, 1.0)
    b = compose_general(mus, 0.1)
    assert b == pytest.approx(0.1 * a, rel=1e-14)


@pytest.mark.parametrize("p", [0.0, -0.1, 1.5, math.nan])
def test_compose_rejects_sampling_probability_outside_unit_interval(p):
    with pytest.raises(ValueError, match="sampling probability"):
        compose_general(np.array([0.5]), p)


def test_compose_budget_overflow_carries_index():
    mus = np.array([0.5, 0.5, 9.0, 0.5])
    with pytest.raises(BudgetOverflow) as exc:
        compose_general(mus, 0.5)
    assert exc.value.k == 2


def test_compose_warns_outside_linearization_regime():
    with pytest.warns(RegimeWarning):
        compose_general(np.array([1.5]), 1.0)


def test_uniform_budget_identity_case():
    # J = 1, K = 1, mu_tot = sqrt(e - 1) gives mu_bar = 1 exactly
    mu_bar = uniform_budget(math.sqrt(math.e - 1.0), 1, 1)
    assert mu_bar == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("J,K", [(1, 1), (10, 50), (250, 2000), (1000, 200)])
def test_uniform_budget_round_trips_through_composition(J, K):
    import warnings

    for mu_tot in (0.05, 0.3, 1.0):
        mu_bar = uniform_budget(mu_tot, J, K)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            composed = compose_general(np.full(K, mu_bar), 1.0 / J)
        assert composed == pytest.approx(mu_tot, rel=1e-12)


def test_solve_mu0_residual_property():
    mu_tot, J, K, rho = 0.3, 100, 500, 4.0
    mu0 = solve_mu0(mu_tot, J, K, rho)
    profile = mu0 * rho ** (np.arange(K) / K)
    target = (J * mu_tot) ** 2
    assert abs(np.expm1(profile**2).sum() - target) <= 1e-10 * target


def test_solve_mu0_matches_uniform_in_the_flat_limit():
    mu_tot, J, K = 0.2, 50, 100
    near_flat = solve_mu0(mu_tot, J, K, 1.0 + 1e-9)
    assert near_flat == pytest.approx(uniform_budget(mu_tot, J, K), abs=1e-6)


def test_solve_mu0_delegates_at_exactly_one():
    mu_tot, J, K = 0.2, 50, 100
    assert solve_mu0(mu_tot, J, K, 1.0) == uniform_budget(mu_tot, J, K)


def test_solve_mu0_monotone_in_growth_rate():
    # faster late growth must start lower to hit the same total
    mu_tot, J, K = 0.3, 100, 400
    mu0s = [solve_mu0(mu_tot, J, K, rho) for rho in (1.5, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(mu0s, mu0s[1:]))


def test_solve_mu0_budget_overflow():
    # the target exceeds what a single step at the budget cap can supply
    with pytest.raises(BudgetOverflow):
        solve_mu0(64.0, 10**13, 1, 2.0)


def test_solve_mu0_rejects_shrinking_budgets():
    with pytest.raises(ValueError):
        solve_mu0(0.3, 100, 500, 0.5)


def test_noise_scale_general_flat_profile():
    # C = 1, shapes = 1, J = 10, mu_tot = 1, K = 50: sqrt(100)/10 = 1
    scale = noise_scale_general(np.ones(50), np.ones(50), 10, 1.0)
    assert scale == pytest.approx(1.0, rel=1e-14)


def test_noise_scale_general_scales_inversely_with_budget():
    clips = np.linspace(1.0, 0.5, 20)
    shapes = np.linspace(1.0, 0.25, 20)
    a = noise_scale_general(clips, shapes, 10, 0.5)
    b = noise_scale_general(clips, shapes, 10, 1.0)
    assert a == pytest.approx(2.0 * b, rel=1e-14)


def test_noise_scale_general_rejects_mismatched_profiles():
    with pytest.raises(ValueError):
        noise_scale_general(np.ones(5), np.ones(6), 10, 1.0)


def test_privacy_spec_resolves_and_round_trips():
    spec = PrivacySpec.resolve(0.7, 1e-4, 250, 2000)
    assert abs(delta_from_mu_eps(spec.mu_tot, 0.7) - 1e-4) <= 1e-9
