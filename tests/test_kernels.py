"""The numpy backend's primitives: the LAPACK solve and the step attempt."""
import numpy as np
import pytest
from scipy.linalg import solve_banded

from nutaxis import Gaussian, Geometry, build_grid, init_state
from nutaxis import kernels
from nutaxis.model import f_eps
from nutaxis.operators import taxis_flux
from nutaxis.stepper import grid_coefficients


def _system(n, D, seed):
    rng = np.random.default_rng(seed)
    cl, cr = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
    cl[0] = cr[-1] = 0.0
    diag = D * (cl + cr) + rng.uniform(0.5, 3.0, n)  # diagonally dominant
    return cl, cr, diag, rng.standard_normal(n)


@pytest.mark.parametrize("D", [0.7, 1e3])
@pytest.mark.parametrize("n", [4, 401, 801])
def test_solve_tridiag_matches_solve_banded_bitwise(n, D):
    args = _system(n, D, seed=n)
    before = [a.copy() for a in args]
    cl, cr, diag, rhs = args
    ab = np.zeros((3, n))
    ab[0, 1:] = -D * cr[:-1]
    ab[1] = diag
    ab[2, :-1] = -D * cl[1:]
    x = kernels.solve_tridiag(cl, cr, diag, rhs, D)
    assert np.array_equal(x, solve_banded((1, 1), ab, rhs))
    for a, b in zip(args, before):
        assert np.array_equal(a, b)


def test_solve_tridiag_zero_pivot_raises():
    n = 6
    cl, cr, diag, rhs = np.zeros(n), np.zeros(n), np.ones(n), np.ones(n)
    diag[3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        kernels.solve_tridiag(cl, cr, diag, rhs, 2.0)


def _attempt_inputs(geometry, eps):
    grid = build_grid(geometry)
    n = grid.n
    bump = Gaussian(base=0.1, amp=1.0, rate=15.0, center=0.0)
    state, _ = init_state(bump, bump, Gaussian(base=1.0, amp=2.0, rate=15.0,
                                               center=0.0), grid)
    u, v, w = state.u, state.v, state.w
    hu, hv, hw = 0.99 * u, 1.01 * v, 1.02 * w
    hnu = np.linspace(-1.0, 1.0, n)
    sink = np.empty(n)
    kernels._fill_sink_numpy(sink, u, v, hu, hv, True, 200.0, 200.0, eps)
    m, cl, cr, af, h = grid_coefficients(grid)
    return [u, v, w, hu, hw, hnu, sink, m, cl, cr, af], h


def _plain_attempt(u, v, w, hu, hw, hnu, sink, m, cl, cr, af, h, sbdf2, dt,
                   D_u, D_w, chi, alpha, delta, eps, w_snap):
    """The attempt's arithmetic in plain, allocating numpy (no rejections)."""
    if sbdf2:
        c0 = 3.0 / (2.0 * dt)
        rhs_w = (4.0 * w - hw) / (2.0 * dt)
    else:
        c0 = 1.0 / dt
        rhs_w = w * c0
    wn = kernels.solve_tridiag(cl, cr, c0 + sink + D_w * (cl + cr), rhs_w, D_w)
    wn[wn < w_snap] = 0.0
    vn = v * np.exp(alpha * dt * 0.5 * (w + wn))
    nn = (-np.diff(taxis_flux(u, w, af, h, chi, eps)) / m
          + delta * f_eps(u, eps) * w)
    if sbdf2:
        rhs_u = (4.0 * u - hu) / (2.0 * dt) + 2.0 * nn - hnu
    else:
        rhs_u = u * c0 + nn
    un = kernels.solve_tridiag(cl, cr, c0 + D_u * (cl + cr), rhs_u, D_u)
    return un, vn, wn, nn


@pytest.mark.parametrize("geometry", [Geometry("interval", 64),
                                      Geometry("radial", 64, d=3, R=1.0)],
                         ids=["interval", "radial-d3"])
@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("sbdf2", [True, False])
def test_numpy_attempt_uses_work_as_scratch_only(geometry, eps, sbdf2):
    arrays, h = _attempt_inputs(geometry, eps)
    before = [a.copy() for a in arrays]
    u, v, w, hu, hw, hnu, sink, m, cl, cr, af = arrays
    n = u.shape[0]
    dt, consts = 1e-5, (20.0, 1.0, 5.0, 2.0, 1.0, eps, 1e-250)

    results = []
    for fill in (0.0, np.nan):
        out = [np.zeros(n) for _ in range(4)]
        work = np.full((5, n + 1), fill)
        status = kernels.attempt_step_numpy(u, v, w, hu, hw, hnu, sink, sbdf2,
                                            dt, m, cl, cr, af, h, *consts,
                                            *out, work)
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)
        results.append((status, out))
    (status, out), (status_nan, out_nan) = results
    assert status == status_nan == (kernels.STATUS_OK, -1)
    for a, b in zip(out, out_nan):
        assert np.array_equal(a, b)
    plain = _plain_attempt(u, v, w, hu, hw, hnu, sink, m, cl, cr, af, h,
                           sbdf2, dt, *consts)
    for a, b in zip(out, plain):
        assert np.array_equal(a, b)
