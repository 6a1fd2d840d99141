import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushdp import accountant
from pushdp.accountant import (
    MU_BRACKET,
    MU_STEP_CAP,
    BudgetOverflow,
    NoBracket,
    PrivacySpec,
    RegimeWarning,
    compose_general,
    delta_from_mu_eps,
    gaussian_cdf,
    log_ndtr,
    mu_tot_from_eps_delta,
    solve_mu0,
)
from pushdp.schedule import build_schedule

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
    # NaN fails each guard too: max(0.0, nan) would otherwise claim delta = 0
    for mu, eps, message in (
        (0.0, 1.0, "mu must be positive"),
        (math.nan, 1.0, "mu must be positive"),
        (1.0, -0.5, "eps must be nonnegative"),
        (1.0, math.nan, "eps must be nonnegative"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            delta_from_mu_eps(mu, eps)
    # and so does the inverse transfer, before it looks for a bracket
    # naming the config keys, in the text the CLI prints
    for eps, delta, message in (
        (0.0, 1e-4, "privacy.epsilon must be positive, got 0.0"),
        (-1.0, 1e-4, "privacy.epsilon must be positive, got -1.0"),
        (math.nan, 1e-4, "privacy.epsilon must be positive, got nan"),
        (1.0, math.nan, "privacy.delta must lie in (0, 1)"),
        (1.0, 0.0, "privacy.delta must lie in (0, 1)"),
        (1.0, 1.0, "privacy.delta must lie in (0, 1)"),
        (1.0, 1.5, "privacy.delta must lie in (0, 1)"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mu_tot_from_eps_delta(eps, delta)


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
    for bad in (-1e-300, math.nan):
        with pytest.raises(ValueError, match="step budgets must be nonnegative"):
            compose_general(np.array([0.5, bad, 0.5]), 0.25)


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
    with pytest.warns(RegimeWarning, match="CLT composition may under-report delta"):
        compose_general(np.array([1.5]), 1.0)


def growth(rho, K):
    """The budget shape rho^(k/K) of a growing schedule."""
    return rho ** (np.arange(K) / K)


def test_uniform_budget_identity_case():
    # J = 1, K = 1, mu_tot = sqrt(e - 1) gives mu_bar = 1 exactly
    mu_bar = solve_mu0(math.sqrt(math.e - 1.0), 1, np.ones(1))
    assert mu_bar == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("J,K", [(1, 1), (10, 50), (250, 2000), (1000, 200)])
def test_uniform_budget_round_trips_through_composition(J, K):
    for mu_tot in (0.05, 0.3, 1.0):
        mu_bar = solve_mu0(mu_tot, J, np.ones(K))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            composed = compose_general(np.full(K, mu_bar), 1.0 / J)
        assert composed == pytest.approx(mu_tot, rel=1e-12)


def test_solve_mu0_residual_property():
    mu_tot, J, K, rho = 0.3, 100, 500, 4.0
    mu0 = solve_mu0(mu_tot, J, growth(rho, K))
    profile = mu0 * growth(rho, K)
    target = (J * mu_tot) ** 2
    assert abs(np.expm1(profile**2).sum() - target) <= 1e-10 * target


def test_solve_mu0_matches_uniform_in_the_flat_limit():
    mu_tot, J, K = 0.2, 50, 100
    near_flat = solve_mu0(mu_tot, J, growth(1.0 + 1e-9, K))
    assert near_flat == pytest.approx(solve_mu0(mu_tot, J, np.ones(K)), abs=1e-6)


def test_solve_mu0_delegates_at_exactly_one():
    # a flat shape takes the closed form, scaled by its level, as a Python float
    mu_tot, J, K = 0.2, 50, 100
    closed = math.sqrt(math.log1p((J * mu_tot) ** 2 / K))
    flat = solve_mu0(mu_tot, J, growth(1.0, K))
    assert type(flat) is float and flat == closed
    assert solve_mu0(mu_tot, J, np.full(K, 2.0)) == closed / 2.0


@pytest.mark.parametrize("J,K,mu_tot", [(100, 500, 0.3), (10, 50, 1.0), (1, 3, 0.5)])
def test_solve_mu0_expands_its_bracket_for_a_shape_below_one(J, K, mu_tot):
    # entries below 1 make the flat budget undershoot, so the bracket's top must grow
    shape = 4.0 ** (-np.arange(K) / K)
    m = solve_mu0(mu_tot, J, shape)
    assert m > math.sqrt(math.log1p((J * mu_tot) ** 2 / K))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        composed = compose_general(m * shape, 1.0 / J)
    assert composed == pytest.approx(mu_tot, rel=1e-10)


def test_solve_mu0_monotone_in_growth_rate():
    # faster late growth must start lower to hit the same total
    mu_tot, J, K = 0.3, 100, 400
    mu0s = [solve_mu0(mu_tot, J, growth(rho, K)) for rho in (1.5, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(mu0s, mu0s[1:]))


def test_solve_mu0_budget_overflow():
    # the target exceeds what the steps at the budget cap can supply, flat or growing
    with pytest.raises(BudgetOverflow) as exc:
        solve_mu0(64.0, 10**13, growth(2.0, 1))
    assert exc.value.k == 0 and exc.value.mu > MU_STEP_CAP
    with pytest.raises(BudgetOverflow) as exc:
        solve_mu0(64.0, 10**13, growth(2.0, 2))
    assert exc.value.k == 1


def test_solve_mu0_rejects_shrinking_budgets():
    # the solver scales any positive shape; a shrinking growth rate is refused where
    # the shape is made
    privacy = PrivacySpec.resolve(0.3, 1e-4, 100, 500)
    with pytest.raises(ValueError, match="growth rate above 1"):
        build_schedule("dyn-mu", privacy, clip0=2.0, rho_mu=0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_solve_mu0_rejects_nonfinite_or_nonpositive_shape(bad):
    # an infinite entry would give sigma_k = 0 there, a NaN one sigma_k = nan
    with pytest.raises(ValueError, match="shape entries must be finite and positive"):
        solve_mu0(0.3, 10, [1.0, bad, 1.0, 1.0, 1.0])


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(
    shape=st.lists(st.floats(1.0, 1e3), min_size=1, max_size=60),
    J=st.integers(1, 10**4),
    mu_tot=st.floats(1e-3, 3.0),
)
def test_solve_mu0_composes_any_shape_to_the_target(shape, J, mu_tot):
    # (J mu_tot)^2 <= 9e8 stays far below expm1(MU_STEP_CAP^2), so no shape overflows
    m = solve_mu0(mu_tot, J, shape)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        composed = compose_general(m * np.asarray(shape), 1.0 / J)
    assert composed == pytest.approx(mu_tot, rel=1e-10)


def test_privacy_spec_resolves_and_round_trips():
    spec = PrivacySpec.resolve(0.7, 1e-4, 250, 2000)
    assert abs(delta_from_mu_eps(spec.mu_tot, 0.7) - 1e-4) <= 1e-9


@pytest.mark.parametrize(
    "mu_tot,J,shape",
    [
        (0.0, 10, [1.0]), (-1.0, 10, [1.0]), (0.3, 0, [1.0]), (0.3, 10, []), (0.3, 10, [[1.0, 2.0]]),
        (math.nan, 10, [1.0, 1.0]),
    ],
)
def test_solve_mu0_rejects_a_nonpositive_budget_or_no_step(mu_tot, J, shape):
    message = "need positive budget and at least one node sample and step"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_mu0(mu_tot, J, shape)


# No input reaches the three guards below: near mu = 64 delta(mu, eps) stays below 1
# within float resolution (eps = 1540 solves to mu = 63.9968, eps = 1560 to 63.99921),
# the bisection always converges and the transfer always round-trips.  Each is tripped
# by swapping out the function that would have to fail.
def test_mu_tot_at_the_upper_bracket_warns(monkeypatch):
    monkeypatch.setattr(accountant, "delta_from_mu_eps", lambda mu, eps: mu / MU_BRACKET[1])
    message = "mu_tot = 64 sits at the upper bracket; the request is degenerate"
    with pytest.warns(RegimeWarning, match=f"^{re.escape(message)}$"):
        mu = mu_tot_from_eps_delta(1.0, 1.0 - 1e-9)
    assert MU_BRACKET[1] - 1e-6 < mu < MU_BRACKET[1]


def test_solve_mu0_refuses_an_unconverged_bisection(monkeypatch):
    monkeypatch.setattr(accountant, "_bisect", lambda below, lo, hi, **tolerance: lo)
    with pytest.raises(ArithmeticError, match="^budget equation residual failed to converge$"):
        solve_mu0(0.3, 10, [1.0, 2.0])


def test_privacy_spec_refuses_a_transfer_that_does_not_round_trip(monkeypatch):
    monkeypatch.setattr(accountant, "mu_tot_from_eps_delta", lambda eps, delta: 1.0)
    message = f"budget transfer failed to round-trip: delta 0.0001 -> {delta_from_mu_eps(1.0, 0.7):g}"
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        PrivacySpec.resolve(0.7, 1e-4, 250, 2000)
