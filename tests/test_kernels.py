"""The numpy kernel's primitives: the LAPACK solve and the step attempt."""
import importlib.machinery
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solveh_banded

import nutaxis
from nutaxis import (Gaussian, Interval, LinearSolveFailure, ModelParams,
                     Radial, StepperConfig, advance, build_grid, init_state)
from nutaxis import kernels
from nutaxis.model import f_eps
from nutaxis.operators import diffusion_rows, taxis_flux

import loop_reference


def _system(n, D, seed):
    """A symmetric, diagonally dominant tridiagonal system ``(d, e, b)``."""
    rng = np.random.default_rng(seed)
    e = -D * rng.uniform(0.1, 2.0, n - 1)
    d = rng.uniform(0.5, 3.0, n)
    d[1:] -= e
    d[:-1] -= e
    return d, e, rng.standard_normal(n)


@pytest.mark.parametrize("D", [0.7, 1e3])
@pytest.mark.parametrize("n", [4, 401, 801])
def test_solve_tridiag_matches_solveh_banded_bitwise(n, D):
    d, e, b = _system(n, D, seed=n)
    ab = np.zeros((2, n))
    ab[0, 1:], ab[1] = e, d
    want = solveh_banded(ab, b)
    fd, fe, x = d.copy(), e.copy(), b.copy()
    assert kernels.solve_tridiag(fd, fe, x) is x
    assert np.array_equal(x, want)
    # the factor left in (fd, fe) solves the system again, bitwise
    x2 = b.copy()
    kernels.solve_tridiag(fd, fe, x2, factored=True)
    assert np.array_equal(x2, want)


@pytest.mark.parametrize("n", [4, 401])
def test_solve_tridiag_in_place_with_work(n):
    # the solve works in place: b gets the solution and d, e (its work) the
    # factor, also where f2py had to copy a strided array
    d, e, b = _system(n, 0.7, seed=n)
    want = kernels.solve_tridiag(d.copy(), e.copy(), b.copy())
    strided = np.zeros((3, n, 2))
    for a, row in zip((d, e, b), strided):
        row[:len(a), 0] = a
    sd, se, sb = strided[0, :, 0], strided[1, :n - 1, 0], strided[2, :, 0]
    assert kernels.solve_tridiag(sd, se, sb) is sb
    assert np.array_equal(sb, want)
    again = b.copy()
    kernels.solve_tridiag(sd, se, again, factored=True)
    assert np.array_equal(again, want)


def _in_a_fresh_process(code):
    src = str(Path(nutaxis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


_SOLVE = ("x = kernels.solve_tridiag(np.full(3, 2.0), np.zeros(2),\n"
          "                          np.ones(3))\n"
          "assert x.tolist() == [0.5, 0.5, 0.5]\n")


def test_import_defers_scipy_to_the_first_solve():
    # and the first solve loads LAPACK without importing scipy.linalg; the
    # package version is a constant, so no import looks up its metadata
    _in_a_fresh_process(
        "import sys\n"
        "import numpy as np\n"
        "import nutaxis\n"
        "from nutaxis import build_grid, Interval, kernels\n"
        "from nutaxis.operators import diffusion_rows\n"
        "for name in ('scipy', 'scipy.optimize', 'importlib.metadata'):\n"
        "    assert name not in sys.modules, f'import nutaxis loaded {name}'\n"
        + _SOLVE +
        "grid = build_grid(Interval(8))\n"
        "lam = kernels.heat_modes(grid.m, *diffusion_rows(grid, 1.0))[0]\n"
        "assert lam[-1] == 0.0 and lam[0] < 0.0\n"
        "assert 'scipy.linalg' not in sys.modules\n")


def test_scipy_linalg_imported_after_the_kernel_shares_its_lapack():
    # the kernel's module is registered, so scipy.linalg takes it over;
    # the package attribute stays unset, but `from scipy.linalg import
    # _flapack`, scipy's own path, finds it
    _in_a_fresh_process(
        "import numpy as np\n"
        "from nutaxis import kernels\n"
        + _SOLVE +
        "from scipy.linalg import _flapack, lapack, solveh_banded\n"
        "assert _flapack is kernels._lapack\n"
        "for r in ('dptsv', 'dpttrs', 'dstemr', 'dstemr_lwork'):\n"
        "    assert getattr(lapack, r) is getattr(kernels._lapack, r), r\n"
        "ab = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])\n"
        "assert solveh_banded(ab, np.ones(3)).tolist() == [0.5, 0.5, 0.5]\n")


def test_the_kernel_reuses_the_lapack_of_an_imported_scipy_linalg():
    _in_a_fresh_process(
        "import sys\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from nutaxis import kernels\n"
        + _SOLVE +
        "assert kernels._lapack is sys.modules['scipy.linalg._flapack']\n")


def test_a_run_through_the_heat_tail_never_imports_scipy_linalg():
    # the tail's heat modes call dstemr; the saving of the light loader is
    # that no part of a run imports scipy.linalg, and only verify's oracles
    # import scipy.integrate; the manifest's version needs no metadata
    _in_a_fresh_process(
        "import sys\n"
        "from dataclasses import replace\n"
        "import nutaxis\n"
        "from nutaxis import preset, run_scenario\n"
        "run = run_scenario(replace(preset('fig1_right', 14), t_end=0.1))\n"
        "man = run.manifest\n"
        "assert man.stats['w_exhausted_t'] is not None, man.stats\n"
        "assert all(a['ok'] for a in man.audits.values()), man.audits\n"
        "assert man.version == nutaxis.__version__, man.version\n"
        "for name in ('scipy.linalg', 'scipy.integrate',\n"
        "             'importlib.metadata'):\n"
        "    assert name not in sys.modules, f'a run loaded {name}'\n")


def test_a_missing_lapack_module_raises_import_error(monkeypatch):
    name = "scipy.linalg._flapack"
    monkeypatch.setattr(kernels, "_lapack", None)
    monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        staticmethod(lambda *args: None))
    with pytest.raises(ImportError, match=name) as err:
        kernels.solve_tridiag(np.full(3, 2.0), np.zeros(2), np.ones(3))
    assert err.value.name == name


def test_solve_tridiag_zero_pivot_raises():
    n = 6
    d, e, b = np.ones(n), np.zeros(n - 1), np.ones(n)
    d[3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        kernels.solve_tridiag(d, e, b)
    # symmetric but indefinite: the second leading minor is 1 - 4 < 0
    with pytest.raises(np.linalg.LinAlgError):
        kernels.solve_tridiag(np.ones(n), np.full(n - 1, 2.0), np.ones(n))


def test_a_matrix_that_is_not_positive_definite_fails_the_run(monkeypatch):
    # the w rows of a workspace whose diffusion has the wrong sign
    real = kernels.diffusion_rows

    def flipped(grid, D):
        diag, off = real(grid, D)
        return -1e9 * diag, off

    monkeypatch.setattr(kernels, "diffusion_rows", flipped)
    grid = build_grid(Interval(16))
    state, _ = init_state(Gaussian(0.1, 1.0, 15.0, 0.5), Gaussian(1.0, 0.0,
                          1.0, 0.5), Gaussian(1.0, 2.0, 15.0, 0.5), grid)
    with pytest.raises(LinearSolveFailure) as err:
        advance(state, grid, ModelParams(*PARAMS), StepperConfig(dt=1e-3),
                t_end=0.01)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
    assert err.value.t == 0.0 and err.value.dt > 0.0


@pytest.mark.parametrize("geometry", [Interval(400),
                                      Radial(400, d=3, R=1.0)],
                         ids=["interval", "radial-d3"])
@pytest.mark.parametrize("system", ["w", "u"])
def test_the_scaled_solve_matches_a_dense_solve_of_the_operator(geometry,
                                                                system):
    # (c0 + s) y - D lap y = r, with the dense lap of the grid: the w
    # system with a random nonnegative sink, the u system with none
    grid = build_grid(geometry)
    m = grid.m
    rng = np.random.default_rng(3)
    c0, D = 1.5e4, (1.0 if system == "w" else 20.0)
    s = rng.uniform(0.0, 5e3, grid.n) if system == "w" else np.zeros(grid.n)
    r = rng.uniform(-1.0, 1.0, grid.n)
    want = np.linalg.solve(
        np.diag(c0 + s) - D * loop_reference.dense_laplacian(grid), r)
    diag, off = diffusion_rows(grid, D)
    x = kernels.solve_tridiag(m * (c0 + s) + diag, off.copy(), m * r)
    assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(want))


# D_u, D_w, chi, alpha, beta, gamma, delta of the step attempts below
PARAMS = (20.0, 1.0, 5.0, 2.0, 200.0, 200.0, 1.0)


def _attempt_inputs(geometry, eps, w_snap=1e-250):
    """A workspace with a history and the sink filled."""
    grid = build_grid(geometry)
    bump = Gaussian(base=0.1, amp=1.0, rate=15.0, center=0.0)
    state, _ = init_state(bump, bump, Gaussian(base=1.0, amp=2.0, rate=15.0,
                                               center=0.0), grid)
    params = ModelParams(*PARAMS, eps_reg=eps)
    ws = kernels.Workspace(grid, state, params)
    ws.w_snap = w_snap
    ws.hy[:] = ws.y * np.array([1.02, 0.99, 1.01])[:, None]
    ws.hnu[:] = np.linspace(-1.0, 1.0, grid.n)
    kernels._fill_sink_numpy(ws.sink, ws.y[1:], ws.hy[1:], True, 200.0,
                             200.0, eps, np.empty((2, grid.n)))
    return ws, params


def _inputs(ws):
    """Every array the attempt reads."""
    return [ws.y, ws.hy, ws.hnu, ws.sink, ws.m, ws.af, ws.dw, ws.ew, ws.du,
            ws.eu]


def _plain_attempt(ws, sbdf2, dt, p):
    """The attempt's arithmetic in plain, allocating numpy (no rejections)."""
    y, hy, hnu, sink, m, af, dw, ew, du, eu = _inputs(ws)
    (w, u, v), eps = y, p.eps_reg
    flux = taxis_flux(u, w, af, ws.h, p.chi, eps)
    nn = f_eps(u, eps) * p.delta * w * m + (flux[:-1] - flux[1:])
    if sbdf2:
        c0 = 3.0 / (2.0 * dt)
        rhs = (4.0 * y[:2] - hy[:2]) / (2.0 * dt) * m
        rhs[1] = rhs[1] + 2.0 * nn - hnu
    else:
        c0 = 1.0 / dt
        rhs = y[:2] * c0 * m
        rhs[1] = rhs[1] + nn
    wn = kernels.solve_tridiag((sink + c0) * m + dw, ew.copy(), rhs[0])
    wn[wn < ws.w_snap] = 0.0
    vn = v * np.exp(p.alpha * dt * 0.5 * (w + wn))
    un = kernels.solve_tridiag(m * c0 + du, eu.copy(), rhs[1])
    return np.array([wn, un, vn]), nn


@pytest.mark.parametrize("geometry", [Interval(64),
                                      Radial(64, d=3, R=1.0)],
                         ids=["interval", "radial-d3"])
@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("sbdf2", [True, False])
def test_numpy_attempt_uses_work_as_scratch_only(geometry, eps, sbdf2):
    # the second attempt reuses the u factor the first one left
    ws, params = _attempt_inputs(geometry, eps)
    before = [a.copy() for a in _inputs(ws)]
    dt = 1e-5

    results = []
    for fill in (0.0, np.nan):
        ws.yn[:] = ws.nn[:] = 0.0
        ws.work[:] = fill
        failure = kernels.attempt_step_numpy(ws, sbdf2, dt, params)
        for a, b in zip(_inputs(ws), before):
            assert np.array_equal(a, b)
        results.append((failure, [ws.yn.copy(), ws.nn.copy()]))
    (failure, out), (failure_nan, out_nan) = results
    assert failure is None and failure_nan is None
    for a, b in zip(out, out_nan):
        assert np.array_equal(a, b)
    plain = _plain_attempt(ws, sbdf2, dt, params)
    for a, b in zip(out, plain):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("sbdf2", [True, False])
def test_numpy_attempt_allocates_no_float_array(sbdf2):
    # one n-length float64 temporary alone reaches 8 n bytes; what the
    # attempt does allocate (array views and the n-byte upwind mask) peaks
    # below that at n = 401, with the u factor reused or built afresh
    ws, params = _attempt_inputs(Interval(401), 0.0)
    n = ws.y.shape[1]
    args = (ws, sbdf2, 1e-5, params)
    assert kernels.attempt_step_numpy(*args) is None
    for u_c0 in (ws.u_c0, 0.0):
        ws.u_c0 = u_c0
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
        fill(sink, np.array([u, v]), np.array([hu, hv]), extrapolate, 200.0,
             50.0, eps, np.full((2, n), np.nan))
        sinks.append(sink)
    assert sinks[0].tobytes() == sinks[1].tobytes()

    w = rng.uniform(0.0, 3.0, n)
    w[100:200] = 0.0  # snapped cells: their sink does not cap dt
    sink = sinks[0]
    sink[150] = 2.0 * sink.max()
    terms = kernels._cap_terms_numpy(w, sink, False)
    assert terms == loop_reference.cap_terms(w, sink, False)
    assert terms[1] < sink[150]
    # where every w is positive the unmasked max is the masked one
    w[100:200] = 1e-300
    assert (kernels._cap_terms_numpy(w, sink, True)
            == loop_reference.cap_terms(w, sink, False))


@pytest.mark.parametrize("sbdf2", [True, False])
def test_numpy_attempt_snaps_like_the_plain_form(sbdf2):
    ws, params = _attempt_inputs(Interval(64), 0.0, w_snap=1e-30)
    # the nutrient is gone from half the domain
    ws.y[0, 32:], ws.hy[0, 32:] = 0.0, 0.0
    assert kernels.attempt_step_numpy(ws, sbdf2, 1e-5, params) is None
    wn = ws.yn[0]
    assert np.any(wn[32:] == 0.0) and np.any(wn[32:] > 0.0)
    assert ws.wn_min == 0.0
    plain, nn = _plain_attempt(ws, sbdf2, 1e-5, params)
    assert ws.yn.tobytes() == plain.tobytes()
    assert ws.nn.tobytes() == nn.tobytes()


@pytest.mark.parametrize("attempt", [kernels.attempt_step_numpy,
                                     loop_reference.attempt],
                         ids=["numpy", "loops"])
@pytest.mark.parametrize("row,field", [(2, "v"), (1, "u")])
def test_an_attempt_that_overflows_names_its_field(attempt, row, field):
    # inf > 0 holds, so an overflowed u+ or v+ must fail its own check
    # rather than pass as positive and surface a step later in w
    ws, params = _attempt_inputs(Interval(64), 0.0)
    ws.y[row, 40] = np.finfo(np.float64).max
    with np.errstate(over="ignore", invalid="ignore"):
        failure = attempt(ws, False, 1e-5, params)
    assert failure is not None and failure[0] == field
    if field == "v":
        assert failure[1] == 40


def test_clearing_the_u_factor_changes_no_bit(monkeypatch):
    # dt changes at every output time and on growth, so the u factor is
    # rebuilt now and then and reused in between; built afresh before every
    # attempt it gives the same bits (dptsv is dpttrf, then dpttrs)
    grid = build_grid(Radial(64, d=3))
    bump = Gaussian(base=0.1, amp=1.0, rate=15.0, center=0.0)
    state0, _ = init_state(bump, bump, Gaussian(1.0, 2.0, 15.0, 0.0), grid)
    params = ModelParams(*PARAMS)
    times = np.geomspace(1e-4, 0.02, 12)
    real_attempt, real_solve = (kernels.attempt_step_numpy,
                                kernels.solve_tridiag)
    calls = []

    def solve(d, e, b, factored=False):
        calls.append(factored)
        return real_solve(d, e, b, factored)

    def cleared(ws, *args):
        ws.u_c0 = 0.0
        return real_attempt(ws, *args)

    monkeypatch.setattr(kernels, "solve_tridiag", solve)
    runs = [advance(state0.copy(), grid, params, StepperConfig(), 0.02,
                    observe_times=times)]
    reused = calls.count(True)
    monkeypatch.setattr(kernels, "attempt_step_numpy", cleared)
    calls.clear()
    runs.append(advance(state0.copy(), grid, params, StepperConfig(), 0.02,
                        observe_times=times))
    assert 0 < reused < runs[0].stats.accepted and calls.count(True) == 0
    assert runs[0].stats.rebuilds > 2  # a new dt, a new factor
    a, b = runs
    assert a.stats == b.stats
    for name in ("u", "v", "w"):
        assert getattr(a.state, name).tobytes() == getattr(b.state, name).tobytes()
