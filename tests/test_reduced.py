import math

import numpy as np
import pytest

from nutaxis import (
    Constant,
    Gaussian,
    HeatTrajectory,
    HorizonTooShort,
    Interval,
    ModelParams,
    NonpositiveField,
    OdeState,
    SignLawMismatch,
    build_grid,
    conserved_quantity,
    heat_solve,
    jensen_gap,
    ode_end_state,
    ode_state,
    sample,
    sign_law_check,
    stabilization_constants,
)


def _params(delta, alpha, beta=1.0, gamma=1.0):
    return ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=alpha, beta=beta,
                       gamma=gamma, delta=delta)


def _trajectory(s0, params, n=1000):
    # n + 1 exposure samples from s0 to the end state, then the end state
    end = ode_end_state(s0, params)
    return [ode_state(s0, params, end.tau * k / n)
            for k in range(n + 1)] + [end]


def test_ode_state_validation():
    params = _params(1.0, 2.0)
    for tau in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="need finite tau >= 0"):
            ode_state(OdeState(0.0, 1, 1, 1), params, tau)
    for s0 in (OdeState(0.0, 0.0, 1, 1), OdeState(0.0, 1, -1, 1),
               OdeState(0.0, 1, 1, -1), OdeState(0.0, 1, 1, float("nan")),
               OdeState(0.0, float("inf"), 1, 1)):
        with pytest.raises(ValueError, match="need finite tau >= 0"):
            ode_end_state(s0, params)
        with pytest.raises(ValueError, match="need finite tau >= 0"):
            ode_state(s0, params, 0.5)


def test_positional_state_and_exposure_clock():
    s0 = OdeState(0.0, 1.0, 1.0, 1.0)
    assert s0.tau == 0.0
    params = _params(1.0, 2.0)
    assert ode_state(s0, params, 0.0) == s0
    s1 = ode_state(s0, params, 0.25)
    assert s1.tau == 0.25
    # exposure is additive: the flow from s1 continues the flow from s0
    s2 = ode_state(s1, params, 0.05)
    ref = ode_state(s0, params, 0.3)
    assert s2.tau == pytest.approx(0.3, rel=1e-15)
    for k in ("u", "v", "w"):
        assert getattr(s2, k) == pytest.approx(getattr(ref, k), rel=1e-14)


def test_ode_monotonicity():
    traj = _trajectory(OdeState(0.0, 1.0, 1.0, 1.0), _params(1.0, 2.0))
    u = np.array([s.u for s in traj])
    v = np.array([s.v for s in traj])
    w = np.array([s.w for s in traj])
    assert np.all(np.diff(u) >= 0.0)
    assert np.all(np.diff(v) >= 0.0)
    assert np.all(np.diff(w) <= 0.0)
    assert np.all(w >= -1e-15) and w[-1] == 0.0


def test_conserved_quantity_exact_to_rounding():
    # Q is the invariant the closed form of w is built from
    params = _params(1.5, 0.5, beta=2.0, gamma=3.0)
    s0 = OdeState(0.0, 1.0, 2.0, 5.0)
    q0 = conserved_quantity(s0, params)
    for s in _trajectory(s0, params):
        assert conserved_quantity(s, params) == pytest.approx(q0, rel=1e-12)


def test_conserved_quantity_needs_positive_rates():
    with pytest.raises(ValueError):
        conserved_quantity(OdeState(0, 1, 1, 1), _params(0.0, 2.0))


def test_closed_form_limits():
    # delta=1, alpha=2, beta=gamma=1, unit data: u -> sqrt(6)-1, v -> 7-2*sqrt(6)
    end = ode_end_state(OdeState(0.0, 1.0, 1.0, 1.0), _params(1.0, 2.0))
    assert end.w == 0.0
    assert end.u == pytest.approx(math.sqrt(6.0) - 1.0, rel=1e-15)
    assert end.v == pytest.approx(7.0 - 2.0 * math.sqrt(6.0), rel=1e-15)
    # the end state is the one root of w(tau)
    assert abs(ode_state(OdeState(0.0, 1.0, 1.0, 1.0), _params(1.0, 2.0),
                         end.tau).w) <= 1e-15


@pytest.mark.parametrize("delta, alpha", [(0.0, 2.0), (1.0, 0.0), (0.0, 0.0)])
def test_zero_growth_rates_take_the_linear_limit(delta, alpha):
    # phi(0, tau) = tau: the species that does not grow consumes at a
    # constant rate, and with neither growing w is linear in tau
    params = _params(delta, alpha)
    end = ode_end_state(OdeState(0.0, 1.0, 1.0, 1.0), params)
    if delta == alpha == 0.0:
        assert end.tau == 0.5 and end.u == end.v == 1.0
    near = ode_end_state(OdeState(0.0, 1.0, 1.0, 1.0),
                         _params(delta or 1e-9, alpha or 1e-9))
    assert end.tau == pytest.approx(near.tau, rel=1e-8)
    assert (end.u, end.v) == pytest.approx((near.u, near.v), rel=1e-8)


def test_no_nutrient_is_the_start_state_bitwise():
    s0 = OdeState(0.5, 0.7, 0.3, 0.0)
    assert ode_end_state(s0, _params(1.0, 2.0)) is s0


def test_no_uptake_has_no_end_state():
    with pytest.raises(ValueError, match="w never decays"):
        ode_end_state(OdeState(0.0, 1.0, 1.0, 1.0),
                      _params(1.0, 2.0, beta=0.0, gamma=0.0))


def test_large_nutrient_end_state_is_finite():
    # the first Newton step alone, w0/(beta*u0 + gamma*v0) = 5e5, would
    # overflow exp; each species' own bound keeps the search finite
    s0 = OdeState(0.0, 1.0, 1.0, 1e6)
    params = _params(1.0, 2.0)
    end = ode_end_state(s0, params)
    assert end.w == 0.0 and math.isfinite(end.v)
    assert conserved_quantity(end, params) == pytest.approx(
        conserved_quantity(s0, params), rel=1e-12)


def test_equal_rates_preserve_symmetry_bitwise():
    for s in _trajectory(OdeState(0.0, 0.7, 0.7, 3.0), _params(1.5, 1.5)):
        assert s.u == s.v


@pytest.mark.parametrize("delta,alpha,expected", [
    (1.0, 2.0, -1),
    (3.0, 2.0, 1),
    (2.0, 2.0, 0),
])
def test_sign_law(delta, alpha, expected):
    assert sign_law_check(1.0, 1.0, 1.0, _params(delta, alpha)) == expected


def test_sign_law_depends_on_initial_nutrient_only_through_sign():
    params = _params(0.5, 3.0)
    for w0 in (0.1, 1.0, 10.0):
        assert sign_law_check(1.0, 1.0, w0, params) == -1


@pytest.mark.parametrize("delta, expected", [(1.0, -1), (3.0, 1)])
def test_sign_law_with_stiff_consumption(delta, expected):
    # fast uptake ends the race at a small exposure: tau_inf = 1.66e-3
    params = _params(delta, 2.0, beta=300.0, gamma=300.0)
    assert sign_law_check(1.0, 1.0, 1.0, params) == expected
    s0 = OdeState(0.0, 1.0, 1.0, 1.0)
    end = ode_end_state(s0, params)
    assert abs(ode_state(s0, params, end.tau).w) <= 1e-14
    if delta == 1.0:
        assert end.tau == pytest.approx(1.6645866e-3, rel=1e-7)


def test_sign_law_validation():
    params = _params(1.0, 2.0)
    with pytest.raises(ValueError):
        sign_law_check(1.0, 2.0, 1.0, params)
    with pytest.raises(ValueError):
        sign_law_check(-1.0, -1.0, 1.0, params)
    with pytest.raises(SignLawMismatch):  # no nutrient, no race
        sign_law_check(1.0, 1.0, 0.0, params)


def test_heat_solve_eigenmode_decay_rate():
    n = 100
    grid = build_grid(Interval(n))
    u0 = 2.0 + np.cos(np.pi * grid.centers)
    traj = heat_solve(u0, 1.0, grid, t_end=0.1)
    assert traj.mean == pytest.approx(2.0, rel=1e-13)
    # cos(pi x) sampled at centers is an exact eigenvector of the discrete
    # operator, so sup|U - mean| decays like exp(lambda_h t)
    lam = 2.0 * (math.cos(math.pi * grid.h) - 1.0) / grid.h ** 2
    slope = np.polyfit(traj.times, np.log(traj.sup_dist), 1)[0]
    assert slope == pytest.approx(lam, rel=5e-3)
    # the flow is exact in time, so the decay is exact to roundoff
    np.testing.assert_allclose(traj.sup_dist,
                               np.exp(lam * traj.times) * traj.sup_dist[0],
                               rtol=1e-10, atol=0.0)
    assert np.all(np.diff(traj.sup_dist) < 0.0)
    assert np.all(np.diff(traj.int_ln_u) > -1e-12)  # entropy is nondecreasing


def test_heat_solve_rejects_nonpositive_data():
    grid = build_grid(Interval(16))
    with pytest.raises(NonpositiveField):
        heat_solve(np.zeros(16), 1.0, grid, t_end=0.1)
    # a nonpositive or infinite horizon is rejected too, with its own message
    for t_end in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t_end > 0"):
            heat_solve(np.ones(16), 1.0, grid, t_end=t_end)


def test_heat_solve_rejects_an_evolved_u_that_is_not_positive():
    # data spanning 300 decades: the modal sum's roundoff (~1e-17) takes
    # the small cells below 0 at the first observation time, and that U is
    # reported, as in the integrator's heat tail, instead of logged
    grid = build_grid(Interval(16))
    u0 = np.full(16, 1e-300)
    u0[0] = 1.0
    with pytest.raises(NonpositiveField, match=r"at cell \d+, t = 0.001"):
        heat_solve(u0, 1.0, grid, t_end=0.1)


def test_jensen_gap_constant_field():
    grid = build_grid(Interval(64))
    rep = jensen_gap(np.full(64, 3.7), grid)
    assert abs(rep.c1) < 1e-14
    assert not rep.strict


def test_jensen_gap_two_valued_field():
    grid = build_grid(Interval(64))
    phi = np.ones(64)
    phi[32:] = math.e
    rep = jensen_gap(phi, grid)
    assert rep.c1 == pytest.approx(math.log((1.0 + math.e) / 2.0) - 0.5, abs=1e-13)
    assert rep.strict


def test_jensen_gap_gaussian_matches_direct_quadrature():
    grid = build_grid(Interval(400))
    phi = np.exp(-15.0 * (grid.centers - 0.5) ** 2)
    rep = jensen_gap(phi, grid)
    expected = math.log(phi.mean()) + 15.0 * np.mean((grid.centers - 0.5) ** 2)
    assert rep.c1 == pytest.approx(expected, rel=1e-12)
    assert abs(rep.c1 - 0.462) < 1e-3


def test_jensen_gap_rejects_nonpositive():
    grid = build_grid(Interval(16))
    with pytest.raises(NonpositiveField):
        jensen_gap(np.zeros(16), grid)


def test_stabilization_constants_constant_data():
    grid = build_grid(Interval(32))
    L, t0 = stabilization_constants(sample(Constant(2.0), grid), 1.0, grid)
    assert L == 0.0 and t0 == 0.0


def test_stabilization_constants_gaussian():
    grid = build_grid(Interval(100))
    u0 = sample(Gaussian(base=0.0, amp=1.0, rate=15.0, center=0.5), grid)
    L, t0 = stabilization_constants(u0, 1.0, grid)
    rep = jensen_gap(u0, grid)
    assert L == pytest.approx(0.5 * rep.c1 * grid.volume, rel=1e-13)
    assert 0.0 < t0 < 5.0 / (math.pi ** 2) + 1e-9
    # the entropy gain stays above L from t0 onward
    traj = heat_solve(u0, 1.0, grid, t_end=5.0 / math.pi ** 2)
    gain = traj.int_ln_u - traj.int_ln_u[0]
    after = traj.times >= t0
    assert np.all(gain[after] >= L - 1e-12)


def test_stabilization_constants_reports_a_horizon_too_short(monkeypatch):
    # one heat run to 80 slowest decay times; an entropy that never rises
    # by L (here a flat trajectory) is reported, not extended
    grid = build_grid(Interval(100))
    u0 = sample(Gaussian(base=0.0, amp=1.0, rate=15.0, center=0.5), grid)
    horizons = []

    def flat(u, D, g, t_end):
        horizons.append(t_end)
        times = np.array([0.0, t_end])
        return HeatTrajectory(times, np.zeros(2), np.ones(2), 1.0)

    monkeypatch.setattr("nutaxis.reduced.heat_solve", flat)
    with pytest.raises(HorizonTooShort, match="never rose by L"):
        stabilization_constants(u0, 2.0, grid)
    assert horizons == [80.0 / (2.0 * math.pi ** 2)]
