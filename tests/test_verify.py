import ast
import math

import numpy as np
import pytest

from nutaxis import (
    Interval,
    ModelParams,
    OdeState,
    State,
    StepperConfig,
    advance,
    build_grid,
    ode_end_state,
    ode_state,
)
from nutaxis import kernels, verify
from nutaxis.reduced import heat_params
from nutaxis.verify import ode_reference, run_all, transport_error

CHECK_NAMES = [
    "heat_spatial_order", "heat_temporal_order_sbdf2",
    "heat_starter_local_order", "transport_spatial_order",
    "transport_zero_data", "regularization_monotone", "regularization_rate",
    "ode_richardson", "ode_symmetry_bitwise", "ode_frozen_without_nutrient",
    "sign_law_reference_cases", "jensen_gaussian", "jensen_two_valued",
    "jensen_constant", "dissipation_nonnegative_random",
]


def _errors(check):
    """The errors of an order check's detail ``observed x (errors (...))``."""
    return ast.literal_eval(check.detail.split("(errors ", 1)[1][:-1])


def test_heat_convergence_report(verify_checks):
    for name in CHECK_NAMES[:3]:
        errs = _errors(verify_checks[name])
        assert errs[0] > errs[1] > errs[2], name
    # the starter's errors are those of one step of dt = 0.004, 0.002, 0.001
    assert _errors(verify_checks["heat_starter_local_order"]) == tuple(
        verify._heat_error_temporal(dt, dt) for dt in (0.004, 0.002, 0.001))


def test_the_spatial_heat_oracle_takes_no_step(monkeypatch, verify_checks):
    def no_step(*args):
        raise AssertionError("a time step was attempted")

    monkeypatch.setattr(kernels, "attempt_step_numpy", no_step)
    with pytest.raises(AssertionError, match="time step"):
        verify._heat_error_temporal(0.004, 0.004)
    assert _errors(verify_checks["heat_spatial_order"]) == tuple(
        verify._heat_error_spatial(n) for n in (100, 200, 400))


@pytest.mark.parametrize("dt", [0.004, 0.002, 0.001])
def test_a_run_of_one_dt_is_the_starter_alone(dt):
    # the premise of the starter's local order: advance to t = dt takes
    # one step, and it is the backward-Euler rebuild
    grid = build_grid(Interval(50))
    state = State(0.0, 2.0 + np.cos(np.pi * grid.centers), np.ones(50),
                  np.zeros(50))
    stats = advance(state, grid, heat_params(1.0), StepperConfig(dt=dt),
                    t_end=dt).stats
    assert (stats.accepted, stats.rebuilds, stats.rejected) == (1, 1, 0)
    assert state.t == dt


def test_transport_convergence_report(verify_checks):
    errs = _errors(verify_checks["transport_spatial_order"])
    assert errs[0] > errs[1] > errs[2]


def test_transport_zero_data_is_exact():
    assert transport_error(100, u0=np.zeros(100)) == 0.0


def test_regularization_distances_decrease(verify_checks):
    detail = verify_checks["regularization_monotone"].detail
    d = ast.literal_eval(detail.removeprefix("distances "))
    assert len(d) == 3 and d[2] > 0.0
    assert d[0] > d[1] > d[2]


@pytest.mark.parametrize("errors", [(1e-2, 0.0, 1e-4), (1e-2, -1e-3, 1e-4),
                                    (1e-2, math.nan, 1e-4)])
def test_an_error_that_is_not_positive_has_no_order(errors):
    assert math.isnan(verify._order((0.01, 0.005, 0.0025), errors))


def test_an_oracle_of_zero_errors_fails_its_order_gate(monkeypatch):
    monkeypatch.setattr(verify, "transport_error", lambda n, u0=None: 0.0)
    lines = []
    checks = {c.name: c for c in run_all(printer=lines.append)}
    assert not checks["transport_spatial_order"].ok
    assert ("[FAIL] transport_spatial_order: observed nan "
            "(errors (0.0, 0.0, 0.0))") in lines
    assert [ln.split(":")[0] for ln in lines] == [
        f"[{'PASS' if c.ok else 'FAIL'}] {c.name}" for c in checks.values()]


def _ode_params(delta=1.0, alpha=2.0):
    return ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=alpha, beta=1.0,
                       gamma=1.0, delta=delta)


@pytest.mark.parametrize("delta", [1.0, 0.0])
def test_closed_form_matches_the_rk4_reference(delta):
    params = _ode_params(delta=delta)
    s0 = OdeState(0.0, 1.0, 1.0, 1.0)
    ref = ode_reference(params, s0, 2.0)
    mid = ode_state(s0, params, ref.tau)
    # by t = 50 the nutrient is gone to below 1e-60: the end state
    late = ode_reference(params, s0, 50.0)
    end = ode_end_state(s0, params)
    assert 0.0 < late.w < 1e-60
    for exact, num in ((mid, ref), (end, late)):
        for k in ("tau", "u", "v"):
            assert getattr(exact, k) == pytest.approx(getattr(num, k),
                                                      rel=1e-8)
    assert mid.w == pytest.approx(ref.w, rel=1e-8)


def test_run_all_passes_and_reports(verify_checks):
    assert list(verify_checks) == CHECK_NAMES
    assert all(c.ok for c in verify_checks.values()), [
        c for c in verify_checks.values() if not c.ok]
