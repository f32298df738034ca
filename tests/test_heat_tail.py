"""The end of the nutrient phase and the exact heat tail of the kernel.

Once what is left of a run's nutrient can no longer move I(inf) by more
than ``kernels.TAIL_TOL * |Omega|`` (or, where that bound has no finite
constant, once all of it is snapped away), ``kernels.segment_numpy`` drops
w, freezes v and takes u at each later segment end from the exact heat map
of the switch state (``kernels.heat_project`` and ``heat_evolve``) instead of
SBDF2 steps.  Each kernel test runs on the numpy primitives and on the loop
reference (``backend`` fixture); the map itself is shared.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nutaxis import (
    Constant,
    Gaussian,
    Interval,
    ModelParams,
    Radial,
    State,
    StepperConfig,
    advance,
    build_grid,
    init_state,
    integrate,
)
from nutaxis import kernels, long_time_index
from nutaxis.operators import diffusion_rows
from nutaxis.reduced import heat_params

import loop_reference

PARAMS = ModelParams(D_u=1.0, D_w=1.0, chi=0.5, alpha=2.0, beta=200.0,
                     gamma=200.0, delta=1.0)
# gamma = 0: the I(inf) bracket has no finite constant, so the run waits for
# the snap
SNAP_PARAMS = ModelParams(D_u=1.0, D_w=1.0, chi=0.5, alpha=2.0, beta=200.0,
                          gamma=0.0, delta=1.0)


def _modes(grid, D):
    return kernels.heat_modes(grid.m, *diffusion_rows(grid, D))


def _heat_flow(grid, D, u, tau):
    # the exact heat map of u over tau, as the kernel's tail takes it
    modes = _modes(grid, D)
    return kernels.heat_evolve(modes, *kernels.heat_project(modes, u), tau,
                               np.empty(grid.n))


def _forbid_the_tail(monkeypatch):
    def never(*args):
        raise AssertionError("the nutrient phase ended")

    monkeypatch.setattr(kernels, "_end_nutrient_phase", never)
    monkeypatch.setattr(kernels, "heat_evolve", never)


def _workspace(grid, params, state):
    # a workspace at ``state`` with the snap floor and the end of the
    # nutrient phase of a run that started from u = 1 + x, v = 1, w = 60
    start = State(0.0, 1.0 + grid.centers, np.ones(grid.n),
                  np.full(grid.n, 60.0))
    ws = kernels.Workspace(grid, state, params)
    started = kernels.Workspace(grid, start, params)
    ws.w_snap, ws.w_tail = started.w_snap, started.w_tail
    return ws


@pytest.mark.parametrize("cell", [0, 7, 15])
def test_tail_does_not_fire_while_any_cell_has_nutrient(backend, monkeypatch,
                                                        cell):
    # with gamma = 0 the switch waits for the snap: a run that started with
    # nutrient and has it left in one cell only keeps stepping
    grid = build_grid(Interval(16))
    w = np.zeros(16)
    w[cell] = 1e-200
    state = State(0.0, 1.0 + grid.centers, np.ones(16), w)
    ws = _workspace(grid, SNAP_PARAMS, state)
    assert ws.w_tail == 0.0
    _forbid_the_tail(monkeypatch)
    kernels.segment_numpy(state, 0.01, ws, SNAP_PARAMS,
                          StepperConfig(dt=0.005))
    assert ws.stats.accepted >= 2
    assert ws.stats.w_exhausted_t is None and ws.tail is None
    assert state.t == 0.01


@pytest.mark.parametrize("cell", [0, 7, 15])
def test_a_certified_remnant_ends_the_nutrient_phase_at_once(backend, cell):
    # with gamma > 0 the same remnant is far below w_tail: no step is taken,
    # w is dropped and the bracket holds the remnant's bound
    grid = build_grid(Interval(16))
    u0 = 1.0 + grid.centers
    c = (PARAMS.alpha / PARAMS.gamma
         + PARAMS.delta * grid.volume / (PARAMS.beta * integrate(u0, grid)))
    w_tail = kernels.TAIL_TOL / c
    w = np.zeros(16)
    w[cell] = 0.5 * w_tail
    state = State(0.0, u0.copy(), np.ones(16), w)
    ws = _workspace(grid, PARAMS, state)
    assert ws.w_tail == pytest.approx(w_tail, rel=1e-15)
    kernels.segment_numpy(state, 0.01, ws, PARAMS, StepperConfig(dt=0.005))
    assert ws.stats.accepted == 0 and ws.stats.w_exhausted_t == 0.0
    assert np.all(state.w == 0.0) and np.all(state.v == 1.0)
    lo, hi = ws.stats.I_bracket
    assert lo < hi


def test_tail_fires_at_once_when_the_nutrient_is_spent(backend):
    grid = build_grid(Interval(16))
    u0 = 1.0 + grid.centers
    state = State(0.5, u0.copy(), np.ones(16), np.zeros(16))
    ws = _workspace(grid, PARAMS, state)
    i_inf = long_time_index(state, grid)
    kernels.segment_numpy(state, 0.75, ws, PARAMS, StepperConfig())
    # no step, and with no nutrient left the bracket is a point
    assert ws.stats == kernels.AdvanceStats(w_exhausted_t=0.5,
                                            I_bracket=ws.stats.I_bracket)
    lo, hi = ws.stats.I_bracket
    assert lo == hi == pytest.approx(i_inf, rel=1e-14)
    assert ws.hdt == 0.0
    assert state.t == 0.75
    want = _heat_flow(grid, PARAMS.D_u, u0, 0.25)
    np.testing.assert_array_equal(state.u, want)


def test_a_tail_level_not_above_zero_fails_by_name(monkeypatch):
    # the heat map keeps u > 0; a level it returned with a cell at -1 must
    # fail as that cell of u, at the start of the segment
    grid = build_grid(Interval(16))
    state = State(0.5, 1.0 + grid.centers, np.ones(16), np.zeros(16))
    ws = _workspace(grid, PARAMS, state)
    heat_evolve = kernels.heat_evolve

    def corrupted(*args):
        out = heat_evolve(*args)
        out[5] = -1.0
        return out

    monkeypatch.setattr(kernels, "heat_evolve", corrupted)
    with pytest.raises(kernels.PositivityViolation) as err:
        kernels.segment_numpy(state, 0.75, ws, PARAMS, StepperConfig())
    assert (err.value.field, err.value.cell, err.value.t) == ("u", 5, 0.5)
    assert str(err.value) == "positivity violation in 'u' at cell 5, t = 0.5"


def test_runs_without_nutrient_keep_their_step_counts(backend, monkeypatch):
    # w0 == 0 has w_snap == 0: the integrator's own heat oracle still steps
    grid = build_grid(Interval(16))
    state = State(0.0, 1.0 + grid.centers, np.ones(16), np.zeros(16))
    _forbid_the_tail(monkeypatch)
    res = advance(state, grid, heat_params(1.0), StepperConfig(dt=0.01),
                  t_end=0.1, observe_times=[0.05])
    stats = res.stats
    assert (stats.accepted, stats.rejected, stats.rebuilds) == (10, 0, 1)
    assert stats.w_exhausted_t is None


def test_after_exhaustion_mass_is_constant_and_v_w_are_frozen(backend):
    grid = build_grid(Interval(16))
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
    # the bracket closes at t ~ 0.07, long before the snap (t ~ 2)
    assert t_ex is not None and 0.0 < t_ex < 5.0
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


def _bumps(grid):
    state, _ = init_state(Gaussian(base=0.5, amp=0.5, rate=10.0, center=0.2),
                          Constant(1.0),
                          Gaussian(base=0.5, amp=0.5, rate=10.0, center=0.5),
                          grid)
    return state


def test_full_exhaustion_lands_in_the_bracket_of_the_switch(backend,
                                                            monkeypatch):
    # stepped on until every cell of w has snapped (TAIL_TOL = 0), a
    # gamma > 0 run's I(inf) lies in the bracket the default run certified
    # at its switch, up to the time error of the steps it took after it
    grid = build_grid(Interval(32))
    runs, tail_tol = [], kernels.TAIL_TOL
    for tol in (tail_tol, 0.0):
        monkeypatch.setattr(kernels, "TAIL_TOL", tol)
        runs.append(advance(_bumps(grid), grid, PARAMS, StepperConfig(),
                            t_end=20.0))
    default, full = runs
    assert full.stats.w_exhausted_t > 10.0 * default.stats.w_exhausted_t
    assert full.stats.accepted > 2 * default.stats.accepted
    lo, hi = default.stats.I_bracket
    assert 0.0 < hi - lo <= tail_tol * grid.volume
    assert lo <= long_time_index(default.state, grid) <= hi
    i_full = long_time_index(full.state, grid)
    # measured: 8.7e-14 (numpy) and 1.8e-14 (loops) below lo
    drift = 1e-12 * grid.volume
    assert lo - drift <= i_full <= hi + drift


@pytest.mark.parametrize("beta, gamma", [(0.0, 200.0), (200.0, 0.0)])
def test_without_a_finite_bracket_the_run_waits_for_the_snap(
        backend, monkeypatch, beta, gamma):
    grid = build_grid(Interval(16))
    params = ModelParams(D_u=1.0, D_w=1.0, chi=0.5, alpha=2.0, beta=beta,
                         gamma=gamma, delta=1.0)
    monkeypatch.setattr(kernels, "W_SNAP_REL", 1e-6)  # a short run
    state = _bumps(grid)
    assert kernels.Workspace(grid, state, params).w_tail == 0.0
    wmax = []
    res = advance(state, grid, params, StepperConfig(), t_end=2.0,
                  observe_times=np.linspace(0.01, 2.0, 200),
                  observer=lambda s: wmax.append((s.t, s.w.max())))
    t_ex = res.stats.w_exhausted_t
    assert t_ex is not None
    assert all(w > 0.0 for t, w in wmax if t < t_ex)
    lo, hi = res.stats.I_bracket
    assert lo == hi  # nothing was left at the switch


@pytest.mark.parametrize("v0", [0.5, 1.0])
def test_a_subnormal_gamma_waits_for_the_snap(backend, v0):
    # gamma = 5e-324, beta = 1, as a property test drew it: gamma * min v0
    # underflows to 0 (v0 = 0.5), or alpha / (gamma * min v0) overflows
    # (v0 = 1); either way the level is the snap's, with no division by 0
    grid = build_grid(Interval(16))
    params = ModelParams(D_u=1.0, D_w=1.0, chi=0.5, alpha=2.0, beta=1.0,
                         gamma=5e-324, delta=1.0)
    state, _ = init_state(Gaussian(0.5, 0.5, 10.0, 0.2), Constant(v0),
                          Gaussian(0.5, 0.5, 10.0, 0.5), grid)
    assert kernels.Workspace(grid, state, params).w_tail == 0.0
    res = advance(state, grid, params, StepperConfig(dt=0.01), t_end=0.05)
    assert res.stats.w_exhausted_t is None
    assert np.all(res.state.u > 0.0) and np.all(res.state.w > 0.0)


def test_modal_tail_is_the_heat_flow_of_the_switch_state(backend,
                                                        monkeypatch):
    grid = build_grid(Radial(32, d=3))
    switches = []
    end_phase = kernels._end_nutrient_phase

    def recorded(ws, params, t):
        switches.append((t, ws.y[1].copy()))
        end_phase(ws, params, t)

    monkeypatch.setattr(kernels, "_end_nutrient_phase", recorded)
    seen = []
    advance(_bumps(grid), grid, PARAMS, StepperConfig(), t_end=60.0,
            observe_times=np.geomspace(0.5, 50.0, 200),
            observer=lambda s: seen.append((s.t, s.u.copy())))
    (t_sw, u_sw), = switches
    assert t_sw < seen[0][0]
    # the plain map over every mode, from the switch state
    lam, q, s, m, volume = _modes(grid, PARAMS.D_u)
    mean = np.dot(m, u_sw) / volume
    coef = q.T @ (s * (u_sw - mean))
    for t, u in seen:
        want = mean + q @ (np.exp((t - t_sw) * lam) * coef) / s
        np.testing.assert_allclose(u, want, rtol=1e-13, atol=0.0)
    masses = np.array([integrate(u, grid) for _, u in seen])
    assert np.ptp(masses) <= 1e-14 * masses[0]


def test_heat_modes_are_built_once_per_grid_and_diffusivity():
    # the cache is keyed on the bytes of the measures and rows, so equal
    # rows in other arrays (a second workspace of the sweep) share it
    grid = build_grid(Interval(16))
    first = _modes(grid, 1.0)
    rows = [a.copy() for a in (grid.m, *diffusion_rows(grid, 1.0))]
    assert kernels.heat_modes(*rows) is first
    assert not any(a.flags.writeable for a in first[:4])
    other = _modes(grid, 2.0)
    np.testing.assert_allclose(other[0], 2.0 * first[0], rtol=1e-12,
                               atol=1e-12)
    assert _modes(grid, 1.0) is not first  # only the last result is kept
    assert _modes(build_grid(Interval(17)), 2.0)[0].shape == (17,)


def test_heat_modes_diagonalize_the_operator():
    # (D lap) (q / s) = (q / s) diag(lam), with D lap built densely from the
    # grid's face areas, measures and spacing
    grid, D = build_grid(Radial(64, d=3)), 0.7
    lam, q, s, _, _ = _modes(grid, D)
    vectors = q / s[:, None]
    lhs = D * loop_reference.dense_laplacian(grid) @ vectors
    assert np.max(np.abs(lhs - vectors * lam)) <= 1e-10 * np.max(np.abs(lhs))
    assert lam[-1] == 0.0 and np.all(np.diff(lam) > 0.0)


def _heat_evolve_all_modes(modes, mean, coef, tau, out):
    # heat_evolve as it was before it skipped the underflowed modes: exp of
    # every mode's tau * lam, then the first nonzero factor
    lam, q, s, _, _ = modes
    c = np.exp(tau * lam)
    j0 = int(np.argmax(c > 0.0))
    c *= coef
    np.dot(q[:, j0:], c[j0:], out=out)
    out /= s
    out += mean
    return out


@pytest.mark.parametrize("geometry", [Interval(401), Radial(400, d=3)])
def test_live_mode_start_is_the_all_mode_flow(geometry):
    # exp is taken only from the first mode with tau * lam >= -746; the
    # flow is bitwise that of exp over every mode, up to the time where
    # only the constant mode is alive
    grid = build_grid(geometry)
    u = 0.5 + np.random.default_rng(7).random(grid.n)
    modes = _modes(grid, 1.0)
    mean, coef = kernels.heat_project(modes, u)
    for tau in (0.0, 1e-300, 1e-6, 1e-3, 1.0, 1e3, 1e12):
        got = kernels.heat_evolve(modes, mean, coef, tau, np.empty(grid.n))
        want = _heat_evolve_all_modes(modes, mean, coef, tau,
                                      np.empty(grid.n))
        assert got.tobytes() == want.tobytes(), tau
    assert np.searchsorted(1.0 * modes[0], -746.0) > 0  # modes skipped
    assert np.count_nonzero(np.exp(1e12 * modes[0])) == 1


def test_map_matches_fine_sbdf2_on_a_radial_ball(backend):
    grid = build_grid(Radial(32, d=3))
    u0 = 1.0 + np.exp(-20.0 * grid.centers ** 2)
    D, t_end = 0.7, 0.05
    mapped = _heat_flow(grid, D, u0, t_end)

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
    st.builds(Interval, st.integers(4, 64)),
    st.builds(Radial, st.integers(4, 64), st.integers(1, 3)))
bumps = st.builds(Gaussian, base=st.floats(0.1, 1.0), amp=st.floats(0.0, 1.0),
                  rate=st.floats(0.0, 20.0), center=st.floats(0.0, 1.0))


@SETTINGS
@given(geometry=geometries, u0=bumps, D_u=st.floats(0.1, 20.0),
       tau=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)))
def test_heat_map_keeps_u_positive_and_its_mass(geometry, u0, D_u, tau):
    grid = build_grid(geometry)
    state, _ = init_state(u0, Constant(1.0), Constant(0.0), grid)
    out = _heat_flow(grid, D_u, state.u, tau)
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
