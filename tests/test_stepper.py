import dataclasses
import math

import numpy as np
import pytest

from nutaxis import (
    Constant,
    Gaussian,
    Interval,
    LinearSolveFailure,
    ModelParams,
    PositivityViolation,
    Radial,
    State,
    StepperConfig,
    advance,
    build_grid,
    init_state,
    integrate,
    preset,
    run_scenario,
)
from nutaxis import kernels

import loop_reference

HEAT = ModelParams(D_u=1.0, D_w=1.0, chi=0.0, alpha=0.0, beta=0.0,
                   gamma=0.0, delta=0.0)
FULL = ModelParams(D_u=20.0, D_w=1.0, chi=0.5, alpha=2.0, beta=200.0,
                   gamma=200.0, delta=1.0)


def _bump_state(grid, w0=60.0):
    prof = Gaussian(base=0.0, amp=1.0, rate=15.0, center=0.5)
    state, _ = init_state(prof, prof, Constant(w0), grid)
    return state


@pytest.mark.parametrize("kwargs", [
    dict(dt=float("nan")),
    dict(dt=0.0),
    dict(dt=-1.0),
    dict(dt=-float("inf")),
    dict(dt=float("inf")),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        StepperConfig(**kwargs)


def test_advance_cfl_cap_scaling(backend):
    """dt = CFL_SAFETY * h / max(chi |grad w|) sets the step count."""
    grid = build_grid(Interval(32))
    cfg = StepperConfig(dt=10.0)

    def stats(chi, w):
        state = State(0.0, np.ones(32), np.ones(32), w.copy())
        params = ModelParams(1.0, 1.0, chi, 0, 0, 0, 0)
        return advance(state, grid, params, cfg, t_end=2.0 * grid.h).stats

    ramp = grid.centers.copy()  # |grad w| = 1 on interior faces
    base = stats(1.0, ramp)
    assert base.accepted == 4
    assert base.min_dt == pytest.approx(0.5 * grid.h, rel=1e-12)
    halved = stats(2.0, ramp)
    assert halved.accepted == 8
    assert halved.min_dt == pytest.approx(0.25 * grid.h, rel=1e-12)
    # no advection limit without chi or without a gradient: one step of t_end
    assert stats(0.0, ramp).accepted == 1
    assert stats(5.0, np.ones(32)).accepted == 1


def test_fig3_front_is_converged_in_the_cfl_number(monkeypatch):
    """Halving CFL_SAFETY on the steepest taxis front moves I by < 1e-5.

    fig3 d=3 to t = 1e-3, where the CFL cap sets every step; I converges at
    second order in the CFL number (I moved ~1e-6 relative from 0.25 to 0.5).
    """
    cfg = dataclasses.replace(preset("fig3", 3), t_end=1e-3)

    def run():
        res = run_scenario(cfg)
        return res.records[-1].I, res.manifest.stats

    i_base, base = run()
    monkeypatch.setattr(kernels, "CFL_SAFETY", 0.5 * kernels.CFL_SAFETY)
    i_half, half = run()
    assert (base["accepted"], base["rejected"]) == (5316, 0)
    assert (half["accepted"], half["rejected"]) == (10631, 0)
    assert abs(i_base - i_half) <= 1e-5 * abs(i_half)


def test_heat_decay_matches_discrete_eigenmode():
    n = 50
    grid = build_grid(Interval(n))
    u0 = 2.0 + np.cos(np.pi * grid.centers)
    state = State(0.0, u0.copy(), np.ones(n), np.zeros(n))
    cfg = StepperConfig(dt=1e-3)
    res = advance(state, grid, HEAT, cfg, t_end=0.1)
    lam = 2.0 * (np.cos(np.pi * grid.h) - 1.0) / grid.h ** 2
    exact = 2.0 + np.exp(lam * 0.1) * np.cos(np.pi * grid.centers)
    np.testing.assert_allclose(res.state.u, exact, rtol=2e-4)
    # mass is conserved by the conservative implicit solve
    assert integrate(res.state.u, grid) == pytest.approx(
        integrate(u0, grid), rel=1e-12)
    # w == 0 stays exactly zero; v (no reactions) stays exactly one
    assert np.all(res.state.w == 0.0)
    np.testing.assert_array_equal(res.state.v, np.ones(n))


def test_advance_lands_exactly_and_validates():
    grid = build_grid(Interval(16))
    state = State(0.0, np.ones(16), np.ones(16), np.zeros(16))
    cfg = StepperConfig(dt=0.03)
    res = advance(state, grid, HEAT, cfg, t_end=0.37)
    assert res.state.t == 0.37

    with pytest.raises(ValueError):
        advance(res.state, grid, HEAT, cfg, t_end=0.1)
    with pytest.raises(ValueError):
        advance(res.state, grid, HEAT, cfg, t_end=1.0, observe_times=[0.9, 0.8])
    with pytest.raises(ValueError):
        advance(res.state, grid, HEAT, cfg, t_end=1.0, observe_times=[2.0])
    # a NaN time is never in range: it must not skip a segment unnoticed
    with pytest.raises(ValueError):
        advance(res.state, grid, HEAT, cfg, t_end=float("nan"))
    with pytest.raises(ValueError):
        advance(res.state, grid, HEAT, cfg, t_end=float("inf"))
    with pytest.raises(ValueError):
        advance(res.state, grid, HEAT, cfg, t_end=1.0,
                observe_times=[float("nan"), 0.5])
    assert res.state.t == 0.37

    unchanged = advance(res.state, grid, HEAT, cfg, t_end=res.state.t)
    assert unchanged.stats.accepted == 0
    # with t_end == state.t no observe time is in range, and none is observed
    seen = []
    for times in ([5.0], [float("nan")]):
        with pytest.raises(ValueError):
            advance(res.state, grid, HEAT, cfg, t_end=res.state.t,
                    observe_times=times, observer=seen.append)
    assert seen == []


def test_observer_called_at_requested_times():
    grid = build_grid(Interval(32))
    state = _bump_state(grid, w0=1.0)
    seen = []
    times = [0.01, 0.02, 0.05]
    advance(state, grid, FULL, StepperConfig(), t_end=0.1,
            observe_times=times, observer=lambda s: seen.append(s.t))
    assert seen == times


def test_advance_is_deterministic():
    grid = build_grid(Interval(48))
    state0 = _bump_state(grid)
    a = advance(state0.copy(), grid, FULL, StepperConfig(), t_end=0.05)
    b = advance(state0.copy(), grid, FULL, StepperConfig(), t_end=0.05)
    for name in ("u", "v", "w"):
        np.testing.assert_array_equal(getattr(a.state, name),
                                      getattr(b.state, name))
    assert a.stats.accepted == b.stats.accepted


def test_backends_agree(monkeypatch):
    # SBDF2 on the interval, then the eps > 0 mobility and uptake on the
    # radial d=3 face areas, then eps > 0 on the interval at a small base dt
    eps = dataclasses.replace(FULL, eps_reg=0.1)
    cases = [(Interval(64), FULL, StepperConfig()),
             (Radial(64, d=3), eps, StepperConfig()),
             (Interval(64), eps, StepperConfig(dt=1e-3))]
    for geometry, params, cfg in cases:
        grid = build_grid(geometry)
        state0 = _bump_state(grid)
        np_ = advance(state0.copy(), grid, params, cfg, t_end=0.02)
        with monkeypatch.context() as patched:
            loop_reference.install(patched)
            nb = advance(state0.copy(), grid, params, cfg, t_end=0.02)
        # the Thomas sweep rounds unlike LAPACK: equal bytes would mean the
        # loop reference never ran
        assert nb.state.u.tobytes() != np_.state.u.tobytes()
        assert nb.stats.accepted == np_.stats.accepted
        assert nb.stats.rejected == np_.stats.rejected
        assert nb.stats.rebuilds == np_.stats.rebuilds
        for name in ("u", "v", "w"):
            np.testing.assert_allclose(getattr(nb.state, name),
                                       getattr(np_.state, name),
                                       rtol=1e-12, atol=1e-13)


def test_two_step_history_carries_across_output_segments(backend):
    # 10 steps of 0.01 with one rebuild: an observe time at 0.05 neither
    # restarts the two-step scheme nor changes a bit of the result
    grid = build_grid(Interval(16))
    runs = []
    for times in (None, [0.05]):
        state = State(0.0, 1.0 + grid.centers, np.ones(16), np.zeros(16))
        runs.append(advance(state, grid, HEAT, StepperConfig(dt=0.01),
                            t_end=0.1, observe_times=times))
    for res in runs:
        assert (res.stats.accepted, res.stats.rebuilds) == (10, 1)
    assert runs[0].state.u.tobytes() == runs[1].state.u.tobytes()


def _sawtooth_collapse_setup(monkeypatch):
    """A valley cell whose upwind outflow over-empties it in a step of h.

    At the taxis CFL number 1 the CFL cap is h; a step of h takes twice
    the valley's u out of it, a step of h / 2 exactly all of it.
    """
    monkeypatch.setattr(kernels, "CFL_SAFETY", 1.0)
    n = 8
    grid = build_grid(Interval(n))
    w = np.zeros(n)
    w[1::2] = grid.h  # sawtooth: |w_{i+1} - w_i| = h on every interior face
    u = np.full(n, 1e-13)
    state = State(0.0, u, np.ones(n), w)
    params = ModelParams(D_u=1e-8, D_w=1.0, chi=1.0, alpha=0.0, beta=0.0,
                         gamma=0.0, delta=0.0)
    return grid, state, params


def test_advance_raises_positivity_violation_when_retries_exhausted(
        monkeypatch, backend):
    monkeypatch.setattr(kernels, "MAX_RETRIES", 0)
    grid, state, params = _sawtooth_collapse_setup(monkeypatch)
    cfg = StepperConfig(dt=grid.h)
    with pytest.raises(PositivityViolation) as err:
        advance(state, grid, params, cfg, t_end=grid.h)
    assert err.value.field == "u"
    assert 0 <= err.value.cell < grid.n
    assert "positivity violation in 'u'" in str(err.value)  # no overflow


def test_advance_recovers_by_halving(monkeypatch, backend):
    # the CFL cap equals dt here, so only the rejection loop can shrink dt;
    # dt must not grow back before the halved step is accepted
    monkeypatch.setattr(kernels, "MAX_RETRIES", 4)
    grid, state, params = _sawtooth_collapse_setup(monkeypatch)
    cfg = StepperConfig(dt=grid.h)
    res = advance(state, grid, params, cfg, t_end=grid.h)
    assert res.state.t == grid.h
    assert np.all(res.state.u > 0.0)
    assert res.stats.rejected >= 1
    assert res.stats.min_dt < cfg.dt


def _fail_from_call(monkeypatch, n_fail, field, count=math.inf):
    """Make kernels.attempt_step_numpy fail ``count`` times from call n_fail on.

    A failing call runs the real attempt, so the attempt's own writes
    happen, then rejects ``field`` at cell 2, or with ``field=None`` raises
    the singular-solve error.  Returns the list of every attempt's
    ``(dt, sbdf2)``.
    """
    attempts = []
    real = kernels.attempt_step_numpy

    def attempt(ws, sbdf2, dt, params):
        attempts.append((dt, sbdf2))
        out = real(ws, sbdf2, dt, params)
        if not n_fail <= len(attempts) < n_fail + count:
            return out
        if field is None:
            raise np.linalg.LinAlgError("zero pivot")
        return field, 2

    monkeypatch.setattr(kernels, "attempt_step_numpy", attempt)
    return attempts


@pytest.mark.parametrize("field, error", [
    ("u", PositivityViolation),
    ("w", PositivityViolation),
    (None, LinearSolveFailure),
])
def test_failure_reports_the_failing_step_start_and_dt(monkeypatch, field,
                                                        error):
    # 10 steps of 0.01 in two output segments; attempts from the 8th on fail,
    # so the failing step starts after 7 accepted steps, inside segment two
    grid = build_grid(Interval(16))
    state = State(0.0, 1.0 + grid.centers, np.ones(16), np.zeros(16))
    monkeypatch.setattr(kernels, "MAX_RETRIES", 2)
    cfg = StepperConfig(dt=0.01)
    attempts = _fail_from_call(monkeypatch, 8, field)
    with pytest.raises(error) as err:
        advance(state, grid, HEAT, cfg, t_end=0.1, observe_times=[0.05])
    dts = [dt for dt, _ in attempts]
    assert err.value.t == pytest.approx(sum(dts[:7]), rel=1e-12)
    assert err.value.t == pytest.approx(0.07, rel=1e-12)
    assert state.t == err.value.t
    assert err.value.dt == dts[-1]
    if error is PositivityViolation:
        assert len(dts) == 7 + 2 + 1  # halved twice, then given up
        assert err.value.dt == pytest.approx(0.0025, rel=1e-12)
        assert (err.value.field, err.value.cell) == (field, 2)
    else:
        assert len(dts) == 8  # a singular solve is not retried
    assert f"t = {err.value.t:.6g}" in str(err.value)
    assert f"dt = {err.value.dt:.6g}" in str(err.value)


def test_a_rejection_retries_with_backward_euler_at_half_dt(monkeypatch):
    # 10 steps of 0.01 in two output segments; only the third attempt fails.
    # The retry is a backward-Euler step at half dt, refitted to the 0.03
    # left in segment one; dt grows only after that retry is accepted, and
    # SBDF2 resumes once the history was left by a step of the same dt
    grid = build_grid(Interval(16))
    state = State(0.0, 1.0 + grid.centers, np.ones(16), np.zeros(16))
    attempts = _fail_from_call(monkeypatch, 3, "u", count=1)
    res = advance(state, grid, HEAT, StepperConfig(dt=0.01), t_end=0.1,
                  observe_times=[0.05])
    want = [(0.01, False), (0.01, True), (0.01, True),  # rejected
            (0.005, False),  # the retry: 6 steps of 0.005 fit 0.03
            (0.025 / 3, False), (0.025 / 3, True), (0.025 / 3, True),
            (0.01, False)] + [(0.01, True)] * 4
    assert [sbdf2 for _, sbdf2 in attempts] == [s for _, s in want]
    assert [dt for dt, _ in attempts] == pytest.approx(
        [dt for dt, _ in want], rel=1e-12)
    stats = res.stats
    assert (stats.accepted, stats.rejected, stats.rebuilds) == (11, 1, 4)
    assert stats.min_dt == pytest.approx(0.005, rel=1e-12)
    assert res.state.t == 0.1


def test_a_rejection_leaves_the_level_and_the_history(monkeypatch):
    # the third attempt (SBDF2, with a history) runs and is then rejected;
    # the retry must start from the same level, history and hnu
    grid = build_grid(Interval(16))
    state = _bump_state(grid)
    _fail_from_call(monkeypatch, 3, "u", count=1)
    failing = kernels.attempt_step_numpy
    seen = []

    def attempt(ws, sbdf2, dt, params):
        seen.append([a.copy() for a in (ws.y, ws.hy, ws.hnu)])
        return failing(ws, sbdf2, dt, params)

    monkeypatch.setattr(kernels, "attempt_step_numpy", attempt)
    res = advance(state, grid, FULL, StepperConfig(dt=1e-3), t_end=5e-3)
    assert res.stats.rejected == 1
    rejected, retry = seen[2], seen[3]
    assert np.any(rejected[1] != 0.0) and np.any(rejected[2] != 0.0)
    for a, b in zip(rejected, retry):
        assert a.tobytes() == b.tobytes()


def test_advance_leaves_the_final_state_in_the_callers_arrays(monkeypatch):
    # the level lives in the kernel's workspace during the run; it is
    # copied back into the arrays the caller passed, also on a failure
    grid = build_grid(Interval(16))
    for fail in (False, True):
        state = _bump_state(grid)
        arrays = state.u, state.v, state.w
        u0 = state.u.copy()
        if fail:  # every attempt from the 4th on is rejected
            monkeypatch.setattr(kernels, "MAX_RETRIES", 2)
            _fail_from_call(monkeypatch, 4, "u")
            with pytest.raises(PositivityViolation) as err:
                advance(state, grid, FULL, StepperConfig(dt=1e-3),
                        t_end=5e-3, observe_times=[2e-3])
            assert 0.0 < state.t == err.value.t < 5e-3
        else:
            res = advance(state, grid, FULL, StepperConfig(dt=1e-3),
                          t_end=5e-3, observe_times=[2e-3])
            assert res.state is state and state.t == 5e-3
        assert all(a is b for a, b in zip((state.u, state.v, state.w),
                                          arrays))
        assert not np.array_equal(state.u, u0)


def _draining_case():
    """Taxis up a nutrient bump drains u out of the last cell."""
    grid = build_grid(Interval(100))
    params = ModelParams(D_u=1e-3, D_w=1.0, chi=50.0, alpha=2.0, beta=200.0,
                         gamma=200.0, delta=1.0)
    state, _ = init_state(Gaussian(1e-12, 1.0, 400.0, 0.3), Constant(1.0),
                          Gaussian(0.0, 20.0, 15.0, 0.7), grid)
    return grid, state, params


def test_a_draining_cell_raises_instead_of_stalling(monkeypatch):
    # u in the last cell drains toward 1e-14, below which the wrapped
    # attempt rejects the step: steps there are rejected down to a tiny dt.
    # An accepted step must not reset the dt floor, or dt doubles straight
    # back, is rejected again, and the run makes no progress; the attempt
    # budget makes such a run fail, not hang
    budget = 20_000
    attempts = []
    real = kernels.attempt_step_numpy

    def attempt(ws, *args):
        attempts.append(None)
        if len(attempts) > budget:
            raise AssertionError(f"no end after {budget} attempts")
        failure = real(ws, *args)
        if failure is None and ws.yn[1][99] <= 1e-14:
            return "u", 99
        return failure

    monkeypatch.setattr(kernels, "attempt_step_numpy", attempt)
    grid, state, params = _draining_case()
    with pytest.raises(PositivityViolation) as err:
        advance(state, grid, params, StepperConfig(), t_end=1e-3)
    assert (err.value.field, err.value.cell) == ("u", 99)
    assert 0.0 < err.value.t < 1e-3 and state.t == err.value.t


def test_a_draining_cell_stays_positive(backend):
    # taxis empties the last cell like exp(-2e5 t); the semi-discrete u
    # stays positive, so every step is accepted far below any fixed floor
    grid, state, params = _draining_case()
    res = advance(state, grid, params, StepperConfig(), t_end=1e-3)
    stats = res.stats
    assert (stats.accepted, stats.rejected, stats.rebuilds) == (665, 0, 1)
    assert res.state.t == 1e-3
    assert np.argmin(res.state.u) == 99
    assert res.state.u[99] == pytest.approx(9.648e-46, rel=1e-3)


def test_positivity_violation_message_without_dt():
    err = PositivityViolation("u", 3, 0.5)
    assert err.dt is None
    assert str(err) == "positivity violation in 'u' at cell 3, t = 0.5"


def test_errors_from_the_numpy_solve_propagate(monkeypatch):
    # only a singular matrix is a LinearSolveFailure; other errors are bugs
    def broken(*args):
        raise ValueError("broken solve")

    monkeypatch.setattr(kernels, "solve_tridiag", broken)
    grid = build_grid(Interval(8))
    state = State(0.0, np.ones(8), np.ones(8), np.zeros(8))
    with pytest.raises(ValueError, match="broken solve"):
        advance(state, grid, HEAT, StepperConfig(), t_end=0.1)


def test_nutrient_snaps_to_exact_zero_and_stays():
    n = 16
    grid = build_grid(Interval(n))
    state, _ = init_state(Constant(1.0), Constant(1.0),
                          Gaussian(base=0.5, amp=0.5, rate=10.0, center=0.5),
                          grid)
    params = ModelParams(D_u=1.0, D_w=1.0, chi=0.5, alpha=2.0, beta=200.0,
                         gamma=200.0, delta=1.0)
    at_2 = []
    more = advance(state, grid, params, StepperConfig(), t_end=3.0,
                   observe_times=[2.0],
                   observer=lambda s: at_2.append((s.w.copy(), s.v.copy())))
    w_2, v_frozen = at_2[0]
    assert np.all(w_2 == 0.0)
    assert np.all(more.state.w == 0.0)
    np.testing.assert_array_equal(more.state.v, v_frozen)
