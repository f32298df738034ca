"""The numpy kernel's primitives: the LAPACK solve and the step attempt."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

import nutaxis
from nutaxis import Gaussian, Geometry, build_grid, init_state
from nutaxis import kernels
from nutaxis.model import f_eps
from nutaxis.operators import taxis_flux
from nutaxis.stepper import grid_coefficients

import loop_reference


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


@pytest.mark.parametrize("n", [4, 401])
def test_solve_tridiag_in_place_with_work(n):
    cl, cr, diag, rhs = _system(n, 0.7, seed=n)
    x = kernels.solve_tridiag(cl, cr, diag, rhs, 0.7)
    cl0, cr0 = cl.copy(), cr.copy()
    strided = np.zeros((n, 2))  # f2py copies a non-contiguous rhs
    strided[:, 0] = rhs
    for b in (rhs, strided[:, 0]):
        work = np.full((2, n + 1), np.nan)
        got = kernels.solve_tridiag(cl, cr, diag.copy(), b, 0.7, work)
        assert got is b
        assert np.array_equal(b, x)
    assert np.array_equal(cl, cl0) and np.array_equal(cr, cr0)


def test_import_defers_scipy_to_the_first_solve():
    code = ("import sys\n"
            "import numpy as np\n"
            "import nutaxis\n"
            "from nutaxis import kernels\n"
            "assert 'scipy' not in sys.modules, 'import nutaxis loaded scipy'\n"
            "x = kernels.solve_tridiag(np.zeros(3), np.zeros(3),\n"
            "                          np.full(3, 2.0), np.ones(3), 1.0)\n"
            "assert x.tolist() == [0.5, 0.5, 0.5]\n")
    src = str(Path(nutaxis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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


@pytest.mark.parametrize("sbdf2", [True, False])
def test_numpy_attempt_allocates_no_float_array(sbdf2):
    # one n-length float64 temporary alone reaches 8 n bytes; what the
    # attempt does allocate (array views and the n-byte upwind mask) peaks
    # below that at n = 401: 2568 B with numpy 2.4, against 20264 B when
    # each solve allocated its off-diagonals, diagonal and solution
    arrays, h = _attempt_inputs(Geometry("interval", 401), 0.0)
    n = arrays[0].shape[0]
    args = (*arrays[:7], sbdf2, 1e-5, *arrays[7:], h,
            20.0, 1.0, 5.0, 2.0, 1.0, 0.0, 1e-250,
            *[np.empty(n) for _ in range(4)], np.empty((5, n + 1)))
    assert kernels.attempt_step_numpy(*args) == (kernels.STATUS_OK, -1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        kernels.attempt_step_numpy(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("extrapolate", [True, False])
def test_vectorized_primitives_match_loop_primitives(extrapolate, eps):
    # the same operations per element, and a max is exact in any order
    rng = np.random.default_rng(17)
    n = 401
    u, v = rng.uniform(0.0, 2.0, n), rng.uniform(0.5, 2.0, n)
    hu, hv = u + rng.uniform(-1.0, 1.0, n), v + rng.uniform(-0.5, 0.5, n)
    assert np.any(2.0 * u - hu < 0.0)  # some extrapolants are clamped
    sinks = []
    for fill in (loop_reference.fill_sink, kernels._fill_sink_numpy):
        sink = np.full(n, np.nan)
        fill(sink, u, v, hu, hv, extrapolate, 200.0, 50.0, eps)
        sinks.append(sink)
    assert sinks[0].tobytes() == sinks[1].tobytes()

    w = rng.uniform(0.0, 3.0, n)
    w[100:200] = 0.0  # snapped cells: their sink does not cap dt
    sink = sinks[0]
    sink[150] = 2.0 * sink.max()
    terms = kernels._cap_terms_numpy(w, sink)
    assert terms == loop_reference.cap_terms(w, sink)
    assert terms[1] < sink[150]


@pytest.mark.parametrize("sbdf2", [True, False])
def test_numpy_attempt_snaps_like_the_plain_form(sbdf2):
    arrays, h = _attempt_inputs(Geometry("interval", 64), 0.0)
    u, v, w, hu, hw, hnu, sink, m, cl, cr, af = arrays
    w, hw = w.copy(), hw.copy()
    w[32:], hw[32:] = 0.0, 0.0  # the nutrient is gone from half the domain
    n = u.shape[0]
    consts = (20.0, 1.0, 5.0, 2.0, 1.0, 0.0, 1e-30)
    out = [np.empty(n) for _ in range(4)]
    status = kernels.attempt_step_numpy(u, v, w, hu, hw, hnu, sink, sbdf2,
                                        1e-5, m, cl, cr, af, h, *consts,
                                        *out, np.empty((5, n + 1)))
    assert status == (kernels.STATUS_OK, -1)
    wn = out[2]
    assert np.any(wn[32:] == 0.0) and np.any(wn[32:] > 0.0)
    plain = _plain_attempt(u, v, w, hu, hw, hnu, sink, m, cl, cr, af, h,
                           sbdf2, 1e-5, *consts)
    for a, b in zip(out, plain):
        assert a.tobytes() == b.tobytes()
