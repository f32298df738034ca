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
from nutaxis import Gaussian, Geometry, ModelParams, build_grid, init_state
from nutaxis import kernels
from nutaxis.model import f_eps
from nutaxis.operators import taxis_flux

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


# D_u, D_w, chi, alpha, beta, gamma, delta of the step attempts below
PARAMS = (20.0, 1.0, 5.0, 2.0, 200.0, 200.0, 1.0)


def _attempt_inputs(geometry, eps, w_snap=1e-250):
    """A state and a workspace with a history and the sink filled."""
    grid = build_grid(geometry)
    bump = Gaussian(base=0.1, amp=1.0, rate=15.0, center=0.0)
    state, _ = init_state(bump, bump, Gaussian(base=1.0, amp=2.0, rate=15.0,
                                               center=0.0), grid)
    u, v, w = state.u, state.v, state.w
    params = ModelParams(*PARAMS, eps_reg=eps)
    ws = kernels.Workspace(grid, state, params)
    ws.w_snap = w_snap
    ws.hu[:], ws.hv[:], ws.hw[:] = 0.99 * u, 1.01 * v, 1.02 * w
    ws.hnu[:] = np.linspace(-1.0, 1.0, grid.n)
    kernels._fill_sink_numpy(ws.sink, u, v, ws.hu, ws.hv, True, 200.0, 200.0,
                             eps)
    return state, ws, params


def _inputs(state, ws):
    """Every array the attempt reads."""
    return [state.u, state.v, state.w, ws.hu, ws.hw, ws.hnu, ws.sink,
            ws.m, ws.cl, ws.cr, ws.af]


def _plain_attempt(state, ws, sbdf2, dt, p):
    """The attempt's arithmetic in plain, allocating numpy (no rejections)."""
    u, v, w, hu, hw, hnu, sink, m, cl, cr, af = _inputs(state, ws)
    eps = p.eps_reg
    if sbdf2:
        c0 = 3.0 / (2.0 * dt)
        rhs_w = (4.0 * w - hw) / (2.0 * dt)
    else:
        c0 = 1.0 / dt
        rhs_w = w * c0
    wn = kernels.solve_tridiag(cl, cr, c0 + sink + p.D_w * (cl + cr), rhs_w,
                               p.D_w)
    wn[wn < ws.w_snap] = 0.0
    vn = v * np.exp(p.alpha * dt * 0.5 * (w + wn))
    nn = (-np.diff(taxis_flux(u, w, af, ws.h, p.chi, eps)) / m
          + p.delta * f_eps(u, eps) * w)
    if sbdf2:
        rhs_u = (4.0 * u - hu) / (2.0 * dt) + 2.0 * nn - hnu
    else:
        rhs_u = u * c0 + nn
    un = kernels.solve_tridiag(cl, cr, c0 + p.D_u * (cl + cr), rhs_u, p.D_u)
    return un, vn, wn, nn


@pytest.mark.parametrize("geometry", [Geometry("interval", 64),
                                      Geometry("radial", 64, d=3, R=1.0)],
                         ids=["interval", "radial-d3"])
@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("sbdf2", [True, False])
def test_numpy_attempt_uses_work_as_scratch_only(geometry, eps, sbdf2):
    state, ws, params = _attempt_inputs(geometry, eps)
    before = [a.copy() for a in _inputs(state, ws)]
    dt = 1e-5

    results = []
    for fill in (0.0, np.nan):
        ws.un[:] = ws.vn[:] = ws.wn[:] = ws.nn[:] = 0.0
        ws.work[:] = fill
        failure = kernels.attempt_step_numpy(state, ws, sbdf2, dt, params)
        for a, b in zip(_inputs(state, ws), before):
            assert np.array_equal(a, b)
        results.append((failure, [ws.un.copy(), ws.vn.copy(), ws.wn.copy(),
                                  ws.nn.copy()]))
    (failure, out), (failure_nan, out_nan) = results
    assert failure is None and failure_nan is None
    for a, b in zip(out, out_nan):
        assert np.array_equal(a, b)
    plain = _plain_attempt(state, ws, sbdf2, dt, params)
    for a, b in zip(out, plain):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("sbdf2", [True, False])
def test_numpy_attempt_allocates_no_float_array(sbdf2):
    # one n-length float64 temporary alone reaches 8 n bytes; what the
    # attempt does allocate (array views and the n-byte upwind mask) peaks
    # below that at n = 401: 2568 B with numpy 2.4, against 20264 B when
    # each solve allocated its off-diagonals, diagonal and solution
    state, ws, params = _attempt_inputs(Geometry("interval", 401), 0.0)
    n = state.u.shape[0]
    args = (state, ws, sbdf2, 1e-5, params)
    assert kernels.attempt_step_numpy(*args) is None
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
    state, ws, params = _attempt_inputs(Geometry("interval", 64), 0.0,
                                        w_snap=1e-30)
    # the nutrient is gone from half the domain
    state.w[32:], ws.hw[32:] = 0.0, 0.0
    assert kernels.attempt_step_numpy(state, ws, sbdf2, 1e-5, params) is None
    assert np.any(ws.wn[32:] == 0.0) and np.any(ws.wn[32:] > 0.0)
    plain = _plain_attempt(state, ws, sbdf2, 1e-5, params)
    for a, b in zip((ws.un, ws.vn, ws.wn, ws.nn), plain):
        assert a.tobytes() == b.tobytes()
