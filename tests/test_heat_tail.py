"""The exact nutrient-free tail of the stepping kernel.

Once all of a run's nutrient is snapped away, ``kernels.segment_numpy``
takes the rest of each segment with the exact heat map
``kernels.heat_flow`` instead of SBDF2 steps.  Each kernel test runs on the
numpy primitives and on the loop reference (``backend`` fixture); the map
itself is shared.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nutaxis import (
    Constant,
    Gaussian,
    Geometry,
    ModelParams,
    State,
    StepperConfig,
    advance,
    build_grid,
    init_state,
    integrate,
)
from nutaxis import kernels
from nutaxis.reduced import heat_params

import loop_reference

PARAMS = ModelParams(D_u=1.0, D_w=1.0, chi=0.5, alpha=2.0, beta=200.0,
                     gamma=200.0, delta=1.0)


def _modes(grid, D):
    m, cl, cr, _, _ = kernels.grid_coefficients(grid)
    return kernels.heat_modes(m, cl, cr, D)


def _forbid_the_map(monkeypatch):
    def never(*args):
        raise AssertionError("the heat map was taken")

    monkeypatch.setattr(kernels, "heat_flow", never)


@pytest.mark.parametrize("cell", [0, 7, 15])
def test_tail_does_not_fire_while_any_cell_has_nutrient(backend, monkeypatch,
                                                        cell):
    # a run that started with nutrient (w_snap > 0) and has it left in one
    # cell only keeps stepping
    grid = build_grid(Geometry("interval", 16))
    ws = kernels.Workspace(grid, np.full(16, 60.0))
    w = np.zeros(16)
    w[cell] = 1e-200
    state = State(0.0, 1.0 + grid.centers, np.ones(16), w)
    _forbid_the_map(monkeypatch)
    kernels.segment_numpy(state, 0.01, ws, PARAMS, StepperConfig(dt=0.005))
    assert ws.stats.accepted >= 2
    assert ws.stats.w_exhausted_t is None and ws.heat is None
    assert state.t == 0.01


def test_tail_fires_at_once_when_the_nutrient_is_spent(backend):
    grid = build_grid(Geometry("interval", 16))
    ws = kernels.Workspace(grid, np.full(16, 60.0))
    u0 = 1.0 + grid.centers
    state = State(0.5, u0.copy(), np.ones(16), np.zeros(16))
    kernels.segment_numpy(state, 0.75, ws, PARAMS, StepperConfig())
    assert ws.stats == kernels.AdvanceStats(w_exhausted_t=0.5)  # no step
    assert ws.hdt == 0.0
    assert state.t == 0.75
    want = kernels.heat_flow(_modes(grid, PARAMS.D_u), u0, 0.25,
                             np.empty(16))
    np.testing.assert_array_equal(state.u, want)


def test_runs_without_nutrient_keep_their_step_counts(backend, monkeypatch):
    # w0 == 0 has w_snap == 0: the integrator's own heat oracle still steps
    grid = build_grid(Geometry("interval", 16))
    state = State(0.0, 1.0 + grid.centers, np.ones(16), np.zeros(16))
    _forbid_the_map(monkeypatch)
    res = advance(state, grid, heat_params(1.0), StepperConfig(dt=0.01),
                  t_end=0.1, observe_times=[0.05])
    stats = res.stats
    assert (stats.accepted, stats.rejected, stats.rebuilds) == (10, 0, 1)
    assert stats.w_exhausted_t is None


def test_after_exhaustion_mass_is_constant_and_v_w_are_frozen(backend):
    grid = build_grid(Geometry("interval", 16))
    state, _ = init_state(Gaussian(base=0.5, amp=0.5, rate=10.0, center=0.2),
                          Constant(1.0),
                          Gaussian(base=0.5, amp=0.5, rate=10.0, center=0.5),
                          grid)
    seen = []
    times = np.linspace(0.25, 50.0, 200)
    res = advance(state, grid, PARAMS, StepperConfig(), t_end=60.0,
                  observe_times=times,
                  observer=lambda s: seen.append((s.t, s.u.copy(), s.v.copy(),
                                                  s.w.copy())))
    t_ex = res.stats.w_exhausted_t
    assert t_ex is not None and 0.25 < t_ex < 5.0
    tail = [s for s in seen if s[0] >= t_ex]
    assert len(tail) > 150
    masses = np.array([integrate(u, grid) for _, u, _, _ in tail])
    assert np.ptp(masses) <= 1e-14 * masses[0]
    for _, u, v, w in tail:
        assert np.all(w == 0.0)
        assert v.tobytes() == tail[0][2].tobytes()
        assert np.all(u > 0.0)
    assert res.state.v.tobytes() == tail[0][2].tobytes()
    # u has relaxed to its mean
    assert np.ptp(res.state.u) < 1e-12


def test_map_matches_fine_sbdf2_on_a_radial_ball(backend):
    grid = build_grid(Geometry("radial", 32, d=3))
    u0 = 1.0 + np.exp(-20.0 * grid.centers ** 2)
    D, t_end = 0.7, 0.05
    mapped = kernels.heat_flow(_modes(grid, D), u0, t_end, np.empty(32))

    def sbdf2(dt):
        state = State(0.0, u0.copy(), np.ones(32), np.zeros(32))
        return advance(state, grid, heat_params(D), StepperConfig(dt=dt),
                       t_end=t_end).state.u

    coarse, fine = sbdf2(2e-3), sbdf2(1e-3)
    # the fine run's time error is about a third of the coarse-fine gap
    # (second order); the exact map must sit within it
    gap = np.max(np.abs(coarse - fine))
    assert 1e-8 < gap < 1e-3
    assert np.max(np.abs(mapped - fine)) <= 0.5 * gap
    assert integrate(mapped, grid) == pytest.approx(integrate(u0, grid),
                                                    rel=1e-14)


SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)
geometries = st.one_of(
    st.builds(Geometry, st.just("interval"), st.integers(4, 64)),
    st.builds(lambda n, d: Geometry("radial", n, d=d),
              st.integers(4, 64), st.integers(1, 3)))
bumps = st.builds(Gaussian, base=st.floats(0.1, 1.0), amp=st.floats(0.0, 1.0),
                  rate=st.floats(0.0, 20.0), center=st.floats(0.0, 1.0))


@SETTINGS
@given(geometry=geometries, u0=bumps, D_u=st.floats(0.1, 20.0),
       tau=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)))
def test_heat_map_keeps_u_positive_and_its_mass(geometry, u0, D_u, tau):
    grid = build_grid(geometry)
    state, _ = init_state(u0, Constant(1.0), Constant(0.0), grid)
    out = kernels.heat_flow(_modes(grid, D_u), state.u, tau,
                            np.empty(grid.n))
    assert np.all(out > 0.0)
    mass = integrate(state.u, grid)
    assert abs(integrate(out, grid) - mass) <= 1e-14 * mass
    # and it stays between the extremes of its data (maximum principle)
    assert out.min() >= state.u.min() * (1 - 1e-13)
    assert out.max() <= state.u.max() * (1 + 1e-13)


@SETTINGS
@given(geometry=geometries, u0=bumps, w0=bumps, D_u=st.floats(0.1, 20.0),
       chi=st.floats(0.0, 2.0), beta=st.floats(10.0, 300.0))
def test_runs_through_exhaustion_keep_u_positive_and_its_mass(
        geometry, u0, w0, D_u, chi, beta):
    # without growth (delta = 0) u's mass is conserved by the steps and by
    # the map; a snap floor at the max of w0 makes w run out at the first
    # step
    grid = build_grid(geometry)
    params = ModelParams(D_u, 1.0, chi, 1.0, beta, 0.0, 0.0)
    state0, _ = init_state(u0, Constant(1.0), w0, grid)
    mass = integrate(state0.u, grid)
    for loops in (False, True):
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(kernels, "W_SNAP_REL", 1.0)
            if loops:
                loop_reference.install(patched)
            res = advance(state0.copy(), grid, params, StepperConfig(dt=0.01),
                          t_end=1.0, observe_times=[0.5])
        assert res.stats.w_exhausted_t is not None
        assert np.all(res.state.u > 0.0)
        assert np.all(res.state.w == 0.0)
        assert abs(integrate(res.state.u, grid) - mass) <= 1e-11 * mass
