"""Property tests of the stepper over randomly drawn parameters and data.

Examples are derandomized, so every run of the suite draws the same cases.
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
    StepperConfig,
    advance,
    build_grid,
    init_state,
    integrate,
)

import loop_reference

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)

geometries = st.one_of(
    st.builds(Geometry, st.just("interval"), st.integers(8, 64)),
    st.builds(lambda n, d: Geometry("radial", n, d=d),
              st.integers(8, 64), st.integers(1, 3)))
bumps = st.builds(Gaussian, base=st.floats(0.1, 1.0), amp=st.floats(0.0, 1.0),
                  rate=st.floats(0.0, 20.0), center=st.floats(0.0, 1.0))
# a base dt of t_end/50 .. t_end, so most runs take the two-step scheme
# past its first (backward-Euler) step
configs = st.builds(StepperConfig, dt=st.floats(1e-3, 0.05),
                    scheme=st.sampled_from(["sbdf2", "sbdf1"]))


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
    # cfl_safety * h / gmax would overflow (with a warning, on the loop
    # reference's numpy scalars).  chi sets no cap: the steps are those of
    # chi = 0
    grid = build_grid(Geometry("interval", 8))
    stats = []
    for chi in (1.23236504835481e-304, 0.0):
        state, _ = init_state(Constant(1.0), Constant(1.0), Constant(1.0), grid)
        params = ModelParams(1.0, 0.5, chi, 0.0, 0.0, 0.0, 0.0)
        stats.append(advance(state, grid, params, StepperConfig(dt=0.015625),
                             t_end=0.05).stats)
    assert stats[0] == stats[1]
