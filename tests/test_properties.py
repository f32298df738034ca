"""Property tests of the stepper over randomly drawn parameters and data.

Examples are derandomized, so every run of the suite draws the same cases.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nutaxis import (
    Constant,
    Gaussian,
    Interval,
    Mirrored,
    ModelParams,
    OutputSchedule,
    Radial,
    StepperConfig,
    advance,
    build_grid,
    init_state,
    integrate,
    preset,
    run_scenario,
)

import loop_reference

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)

geometries = st.one_of(
    st.builds(Interval, st.integers(8, 64)),
    st.builds(Radial, st.integers(8, 64), st.integers(1, 3)))
bumps = st.builds(Gaussian, base=st.floats(0.1, 1.0), amp=st.floats(0.0, 1.0),
                  rate=st.floats(0.0, 20.0), center=st.floats(0.0, 1.0))
# a base dt of t_end/50 .. t_end, so most runs take the two-step scheme
# past its first (backward-Euler) step
configs = st.builds(StepperConfig, dt=st.floats(1e-3, 0.05))


@SETTINGS
@given(geometry=geometries, u0=bumps, w0=bumps, cfg=configs,
       D_u=st.floats(0.1, 20.0), D_w=st.floats(0.1, 10.0),
       chi=st.floats(0.0, 2.0), eps=st.sampled_from([0.0, 0.1]))
def test_without_reactions_masses_are_conserved(geometry, u0, w0, cfg, D_u,
                                                D_w, chi, eps):
    # alpha = beta = gamma = delta = 0: the u and w updates are conservative
    # diffusion and taxis, and v is multiplied by exp(0) == 1
    grid = build_grid(geometry)
    params = ModelParams(D_u, D_w, chi, 0.0, 0.0, 0.0, 0.0, eps_reg=eps)
    state0, _ = init_state(u0, Gaussian(1.0, 0.5, 3.0, 0.5), w0, grid)
    for loops in (False, True):
        with pytest.MonkeyPatch.context() as patched:
            if loops:
                loop_reference.install(patched)
            end = advance(state0.copy(), grid, params, cfg, t_end=0.05).state
        for name in ("u", "w"):
            before = integrate(getattr(state0, name), grid)
            after = integrate(getattr(end, name), grid)
            assert abs(after - before) <= 1e-11 * before, name
        assert end.v.tobytes() == state0.v.tobytes()


@SETTINGS
@given(geometry=geometries, u0=bumps, v0=bumps, w0=bumps, cfg=configs,
       D_u=st.floats(0.1, 20.0), D_w=st.floats(0.1, 10.0),
       chi=st.floats(0.0, 2.0), alpha=st.floats(0.0, 5.0),
       beta=st.floats(0.0, 300.0), gamma=st.floats(0.0, 300.0),
       delta=st.floats(0.0, 5.0), eps=st.sampled_from([0.0, 0.1]))
def test_advance_keeps_the_positive_cone(geometry, u0, v0, w0, cfg, D_u, D_w,
                                         chi, alpha, beta, gamma, delta, eps):
    grid = build_grid(geometry)
    params = ModelParams(D_u, D_w, chi, alpha, beta, gamma, delta,
                         eps_reg=eps)
    state, _ = init_state(u0, v0, w0, grid)
    end = advance(state, grid, params, cfg, t_end=0.05).state
    assert np.all(end.u > 0.0)
    assert np.all(end.v > 0.0)
    assert np.all(end.w >= 0.0)


def test_a_subnormal_chi_does_not_overflow_the_cfl_cap(backend):
    # a case the conservation property drew at random: w stays constant up
    # to roundoff, so gmax = chi * max|w[j] - w[j-1]| / h is subnormal and
    # CFL_SAFETY * h / gmax would overflow (with a warning, on the loop
    # reference's numpy scalars).  chi sets no cap: the steps are those of
    # chi = 0
    grid = build_grid(Interval(8))
    stats = []
    for chi in (1.23236504835481e-304, 0.0):
        state, _ = init_state(Constant(1.0), Constant(1.0), Constant(1.0), grid)
        params = ModelParams(1.0, 0.5, chi, 0.0, 0.0, 0.0, 0.0)
        stats.append(advance(state, grid, params, StepperConfig(dt=0.015625),
                             t_end=0.05).stats)
    assert stats[0] == stats[1]


# the exact scalings of the model, on fig1_right l=14 cut to 41 cells and
# t = 0.2 (~80 steps).  Every kernel constant is relative, so a power-of-two
# k gives the same run in scaled units: w0 -> k w0 with chi, delta, alpha
# divided by k, and every time and rate in units of k, leave I unchanged;
# u0 -> k u0 with beta -> beta/k shifts I by -|Omega| ln k, v0 -> k v0 with
# gamma -> gamma/k by +|Omega| ln k; the interval [0, k] with D_u, D_w and
# chi times k^2 and each Gaussian's rate over k^2, center times k, scales I
# by k
SCALED = replace(preset("fig1_right", 14), geometry=Interval(41),
                 t_end=0.2)
SCALING_SETTINGS = settings(
    max_examples=6, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])
powers_of_two = st.integers(-20, 20).filter(bool).map(lambda e: 2.0 ** e)


def _scaled_run(cfg):
    """(I of every record, final state, step counts) of a run of cfg."""
    res = run_scenario(cfg)
    stats = res.manifest.stats
    return ([r.I for r in res.records], res.state,
            (stats["accepted"], stats["rejected"], stats["rebuilds"]))


def _gaussian_times(g, k):
    return replace(g, base=g.base * k, amp=g.amp * k)


@SCALING_SETTINGS
@given(k=powers_of_two)
@example(k=2.0 ** -20)
@example(k=2.0 ** 20)
def test_w_and_time_scalings_give_the_same_run(backend, k):
    i_ref, end_ref, steps = _scaled_run(SCALED)
    p = SCALED.params
    w_scaled = replace(SCALED, w0=_gaussian_times(SCALED.w0, k),
                       params=replace(p, chi=p.chi / k, delta=p.delta / k,
                                      alpha=p.alpha / k))
    t_scaled = replace(
        SCALED, t_end=SCALED.t_end * k,
        output=OutputSchedule(t_first=SCALED.output.t_first * k,
                              factor=SCALED.output.factor),
        stepper=StepperConfig(dt=SCALED.stepper.dt * k),
        params=replace(p, D_u=p.D_u / k, D_w=p.D_w / k, chi=p.chi / k,
                       alpha=p.alpha / k, beta=p.beta / k,
                       gamma=p.gamma / k, delta=p.delta / k))
    for cfg in (w_scaled, t_scaled):
        i_k, end_k, steps_k = _scaled_run(cfg)
        assert [x.hex() for x in i_k] == [x.hex() for x in i_ref]
        assert end_k.u.tobytes() == end_ref.u.tobytes()
        assert steps_k == steps


@SCALING_SETTINGS
@given(k=powers_of_two)
@example(k=2.0 ** -20)
@example(k=2.0 ** 20)
def test_u_scaling_shifts_the_index_by_volume_ln_k(backend, k):
    i_ref, end_ref, steps = _scaled_run(SCALED)
    cfg = replace(SCALED, u0=_gaussian_times(SCALED.u0, k),
                  params=replace(SCALED.params, beta=SCALED.params.beta / k))
    i_k, end_k, steps_k = _scaled_run(cfg)
    vol_ln_k = build_grid(SCALED.geometry).volume * math.log(k)
    shift = np.array(i_k) - np.array(i_ref)
    assert np.all(np.abs(shift + vol_ln_k) <= 1e-12 * abs(vol_ln_k))
    assert (end_k.u / k).tobytes() == end_ref.u.tobytes()
    assert steps_k == steps


@SCALING_SETTINGS
@given(k=powers_of_two)
@example(k=2.0 ** -20)
@example(k=2.0 ** 20)
def test_v_scaling_shifts_the_index_by_volume_ln_k(backend, k):
    i_ref, end_ref, steps = _scaled_run(SCALED)
    cfg = replace(SCALED, v0=Mirrored(_gaussian_times(SCALED.v0.inner, k)),
                  params=replace(SCALED.params,
                                 gamma=SCALED.params.gamma / k))
    i_k, end_k, steps_k = _scaled_run(cfg)
    vol_ln_k = build_grid(SCALED.geometry).volume * math.log(k)
    shift = np.array(i_k) - np.array(i_ref)
    assert np.all(np.abs(shift - vol_ln_k) <= 1e-12 * abs(vol_ln_k))
    assert (end_k.v / k).tobytes() == end_ref.v.tobytes()
    assert end_k.u.tobytes() == end_ref.u.tobytes()
    assert steps_k == steps


def _gaussian_stretched(g, k):
    return replace(g, rate=g.rate / (k * k), center=g.center * k)


@SCALING_SETTINGS
@given(k=powers_of_two)
@example(k=2.0 ** -20)
@example(k=2.0 ** 20)
@example(k=2.0)
def test_space_scaling_scales_the_index_by_k(backend, k):
    # the nutrient runs out at t ~ 0.05, and the heat tail's modes take the
    # square roots of the cell measures, which scale exactly only when k is
    # an even power of two: the final u and I/k are not compared bitwise
    i_ref, _, steps = _scaled_run(SCALED)
    p = SCALED.params
    cfg = replace(
        SCALED, geometry=replace(SCALED.geometry, x_hi=k),
        u0=_gaussian_stretched(SCALED.u0, k),
        v0=Mirrored(_gaussian_stretched(SCALED.v0.inner, k)),
        w0=_gaussian_stretched(SCALED.w0, k),
        params=replace(p, D_u=p.D_u * k * k, D_w=p.D_w * k * k,
                       chi=p.chi * k * k))
    i_k, _, steps_k = _scaled_run(cfg)
    scale = np.abs(i_ref).max()
    assert np.all(np.abs(np.array(i_k) / k - np.array(i_ref)) <= 1e-12 * scale)
    assert steps_k == steps
