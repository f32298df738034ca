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
from nutaxis.reduced import heat_params
from nutaxis.verify import (
    manufactured_convergence,
    ode_reference,
    regularization_study,
    run_all,
    transport_error,
)


def test_heat_convergence_report():
    rep = manufactured_convergence("heat")
    assert rep.problem == "heat"
    assert rep.resolutions == (100, 200, 400)
    assert all(a > b for a, b in zip(rep.errors, rep.errors[1:]))
    assert rep.spatial_order >= 1.9
    _, _, order2 = rep.temporal["sbdf2"]
    dts1, _, order1 = rep.temporal["starter"]
    assert order2 >= 1.9
    # one backward-Euler step has a second-order local error
    assert 1.8 <= order1 <= 2.2
    assert dts1 == (0.004, 0.002, 0.001)


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


def test_transport_convergence_report():
    rep = manufactured_convergence("advection-diffusion")
    assert rep.temporal is None
    assert all(a > b for a, b in zip(rep.errors, rep.errors[1:]))
    assert rep.spatial_order >= 1.9


def test_transport_zero_data_is_exact():
    assert transport_error(100, u0=np.zeros(100)) == 0.0


def test_convergence_validation():
    with pytest.raises(ValueError):
        manufactured_convergence("stokes")


def test_regularization_distances_decrease():
    rep = regularization_study()
    assert rep.eps == (1e-1, 1e-2, 1e-3)
    assert rep.sample_time == 1.0
    assert all(d > 0.0 for d in rep.distances)
    assert rep.distances[0] > rep.distances[1] > rep.distances[2]


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


def test_run_all_passes_and_reports():
    lines = []
    results = run_all(seed=0, printer=lines.append)
    assert len(results) == 15
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    assert len(lines) == len(results)
    for line, res in zip(lines, results):
        assert line.startswith("[PASS] " + res.name + ":")
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
