import math

import numpy as np
import pytest

from nutaxis import (
    Constant,
    Gaussian,
    Geometry,
    HorizonTooShort,
    ModelParams,
    NonpositiveField,
    OdeState,
    build_grid,
    conserved_quantity,
    heat_solve,
    jensen_gap,
    ode_solve,
    ode_step_rk4,
    sample,
    sign_law_check,
    stabilization_constants,
)


def _params(delta, alpha, beta=1.0, gamma=1.0):
    return ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=alpha, beta=beta,
                       gamma=gamma, delta=delta)


def test_ode_solve_schedule():
    params = _params(1.0, 2.0)
    traj = ode_solve(OdeState(0.0, 1.0, 1.0, 1.0), params, 1.0, 0.25)
    assert len(traj) == 5
    assert traj[-1].t == pytest.approx(1.0, abs=1e-12)
    traj = ode_solve(OdeState(0.0, 1.0, 1.0, 1.0), params, 1.1, 0.25)
    assert len(traj) == 6  # four full steps plus a shortened final one
    assert traj[-1].t == pytest.approx(1.1, abs=1e-12)


def test_ode_solve_validation():
    params = _params(1.0, 2.0)
    with pytest.raises(ValueError):
        ode_solve(OdeState(0.0, 1, 1, 1), params, 1.0, 0.0)
    with pytest.raises(ValueError):
        ode_solve(OdeState(1.0, 1, 1, 1), params, 0.5, 0.1)
    with pytest.raises(ValueError):
        ode_step_rk4(OdeState(0.0, 1, 1, 1), params, -0.1)
    # non-finite steps and horizons: no float-to-int error, no single step
    # of dt = inf across the whole horizon
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            ode_solve(OdeState(0.0, 1, 1, 1), params, 1.0, bad)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            ode_step_rk4(OdeState(0.0, 1, 1, 1), params, bad)
        with pytest.raises(ValueError, match="t_end = "):
            ode_solve(OdeState(0.0, 1, 1, 1), params, bad, 0.1)


@pytest.mark.parametrize("dt", [100.0, 5.0])
def test_ode_solve_rejects_steps_that_leave_the_invariant_region(dt):
    # RK4 is unstable at these steps: u and v went negative (dt = 100) or
    # to -inf (dt = 5) and the run used to finish with a wrong sign
    params = _params(1.0, 2.0)
    with pytest.raises(ValueError, match=r"dt = \S+ from t = 0 left the "
                                         r"invariant region"):
        ode_solve(OdeState(0.0, 1.0, 1.0, 1.0), params, 50.0, dt)


def test_ode_monotonicity():
    traj = ode_solve(OdeState(0.0, 1.0, 1.0, 1.0), _params(1.0, 2.0), 10.0, 1e-2)
    u = np.array([s.u for s in traj])
    v = np.array([s.v for s in traj])
    w = np.array([s.w for s in traj])
    assert np.all(np.diff(u) >= 0.0)
    assert np.all(np.diff(v) >= 0.0)
    assert np.all(np.diff(w) <= 0.0)
    assert w[-1] >= 0.0


def test_conserved_quantity_exact_to_rounding():
    # Q is a linear invariant, so RK4 preserves it to rounding at any dt
    params = _params(1.5, 0.5, beta=2.0, gamma=3.0)
    s0 = OdeState(0.0, 1.0, 2.0, 5.0)
    q0 = conserved_quantity(s0, params)
    for s in ode_solve(s0, params, 10.0, 1e-2):
        assert conserved_quantity(s, params) == pytest.approx(q0, rel=1e-12)


def test_conserved_quantity_needs_positive_rates():
    with pytest.raises(ValueError):
        conserved_quantity(OdeState(0, 1, 1, 1), _params(0.0, 2.0))


def test_closed_form_limits():
    # delta=1, alpha=2, beta=gamma=1, unit data: u -> sqrt(6)-1, v -> 7-2*sqrt(6)
    traj = ode_solve(OdeState(0.0, 1.0, 1.0, 1.0), _params(1.0, 2.0), 50.0, 1e-3)
    end = traj[-1]
    assert end.w < 1e-60
    assert end.u == pytest.approx(math.sqrt(6.0) - 1.0, rel=1e-8)
    assert end.v == pytest.approx(7.0 - 2.0 * math.sqrt(6.0), rel=1e-8)


def test_equal_rates_preserve_symmetry_bitwise():
    traj = ode_solve(OdeState(0.0, 0.7, 0.7, 3.0), _params(1.5, 1.5), 5.0, 1e-2)
    for s in traj:
        assert s.u == s.v


@pytest.mark.parametrize("delta,alpha,expected", [
    (1.0, 2.0, -1),
    (3.0, 2.0, 1),
    (2.0, 2.0, 0),
])
def test_sign_law(delta, alpha, expected):
    assert sign_law_check(1.0, 1.0, 1.0, _params(delta, alpha), 100.0) == expected


def test_sign_law_depends_on_initial_nutrient_only_through_sign():
    params = _params(0.5, 3.0)
    for w0 in (0.1, 1.0, 10.0):
        assert sign_law_check(1.0, 1.0, w0, params, 200.0) == -1


@pytest.mark.parametrize("delta, expected", [(1.0, -1), (3.0, 1)])
def test_sign_law_with_stiff_consumption(delta, expected):
    # beta*u*dt reaches 3 at dt = 1e-2, past RK4's stability limit; the
    # step is cut to 1/lam with lam = beta*u0 + gamma*v0 + (alpha+delta)*w0
    params = _params(delta, 2.0, beta=300.0, gamma=300.0)
    assert sign_law_check(1.0, 1.0, 1.0, params, 200.0) == expected


def test_sign_law_validation():
    params = _params(1.0, 2.0)
    with pytest.raises(ValueError):
        sign_law_check(1.0, 2.0, 1.0, params, 10.0)
    with pytest.raises(ValueError):
        sign_law_check(-1.0, -1.0, 1.0, params, 10.0)
    with pytest.raises(HorizonTooShort):
        sign_law_check(1.0, 1.0, 1.0, params, 0.1)


def test_heat_solve_eigenmode_decay_rate():
    n = 100
    grid = build_grid(Geometry("interval", n))
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
    grid = build_grid(Geometry("interval", 16))
    with pytest.raises(NonpositiveField):
        heat_solve(np.zeros(16), 1.0, grid, t_end=0.1)
    # a nonpositive or infinite horizon is rejected too, with its own message
    for t_end in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t_end > 0"):
            heat_solve(np.ones(16), 1.0, grid, t_end=t_end)


def test_jensen_gap_constant_field():
    grid = build_grid(Geometry("interval", 64))
    rep = jensen_gap(np.full(64, 3.7), grid)
    assert abs(rep.c1) < 1e-14
    assert not rep.strict


def test_jensen_gap_two_valued_field():
    grid = build_grid(Geometry("interval", 64))
    phi = np.ones(64)
    phi[32:] = math.e
    rep = jensen_gap(phi, grid)
    assert rep.c1 == pytest.approx(math.log((1.0 + math.e) / 2.0) - 0.5, abs=1e-13)
    assert rep.strict


def test_jensen_gap_gaussian_matches_direct_quadrature():
    grid = build_grid(Geometry("interval", 400))
    phi = np.exp(-15.0 * (grid.centers - 0.5) ** 2)
    rep = jensen_gap(phi, grid)
    expected = math.log(phi.mean()) + 15.0 * np.mean((grid.centers - 0.5) ** 2)
    assert rep.c1 == pytest.approx(expected, rel=1e-12)
    assert abs(rep.c1 - 0.462) < 1e-3


def test_jensen_gap_rejects_nonpositive():
    grid = build_grid(Geometry("interval", 16))
    with pytest.raises(NonpositiveField):
        jensen_gap(np.zeros(16), grid)


def test_stabilization_constants_constant_data():
    grid = build_grid(Geometry("interval", 32))
    L, t0 = stabilization_constants(Constant(2.0), 1.0, grid)
    assert L == 0.0 and t0 == 0.0


def test_stabilization_constants_gaussian():
    grid = build_grid(Geometry("interval", 100))
    prof = Gaussian(base=0.0, amp=1.0, rate=15.0, center=0.5)
    L, t0 = stabilization_constants(prof, 1.0, grid)
    rep = jensen_gap(sample(prof, grid), grid)
    assert L == pytest.approx(0.5 * rep.c1 * grid.volume, rel=1e-13)
    assert 0.0 < t0 < 5.0 / (math.pi ** 2) + 1e-9
    # the entropy gain stays above L from t0 onward
    traj = heat_solve(prof, 1.0, grid, t_end=5.0 / math.pi ** 2)
    gain = traj.int_ln_u - traj.int_ln_u[0]
    after = traj.times >= t0
    assert np.all(gain[after] >= L - 1e-12)
