"""The explicit-loop reference of the stepping kernel's primitives.

:func:`install` replaces the three array primitives that
:func:`nutaxis.kernels.segment_numpy` looks up at each use
(``attempt_step_numpy``, ``_fill_sink_numpy`` and ``_cap_terms_numpy``) by
the plain loops below, with one Thomas sweep on the unscaled rows for
both implicit solves; the controller is shared.  Those rows come from its
own face couplings (:func:`couplings`), not from the kernel's.  It is slow
and exists for tests.  It agrees with the numpy kernel to roundoff (~1e-12
relative), not bitwise, because the kernel solves the m-scaled symmetric
rows by LAPACK's LDL^T and the Thomas sweep rounds differently.
"""
import math

import numpy as np

from nutaxis import kernels


def install(monkeypatch):
    """Run the kernel over the loop primitives for the monkeypatch's life."""
    monkeypatch.setattr(kernels, "attempt_step_numpy", attempt)
    monkeypatch.setattr(kernels, "_fill_sink_numpy", fill_sink)
    monkeypatch.setattr(kernels, "_cap_terms_numpy", cap_terms)


def couplings(m, af, h):
    # the face couplings of lap from the grid's measures, face areas and
    # spacing: row i of lap is cl[i] (y[i-1] - y[i]) + cr[i] (y[i+1] - y[i]),
    # with no flux through the two boundary faces
    cl, cr = np.zeros((2, m.shape[0]))
    cl[1:] = af[1:-1] / (h * m[1:])
    cr[:-1] = af[1:-1] / (h * m[:-1])
    return cl, cr


def dense_laplacian(grid):
    """The Neumann Laplacian of ``grid`` as a dense matrix: the flux
    ``a (y[i+1] - y[i]) / h`` through each interior face, differenced and
    divided by ``m``."""
    n, a = grid.n, grid.face_areas[1:-1] / grid.h
    flux = np.zeros((n + 1, n))
    flux[np.arange(1, n), np.arange(1, n)] = a
    flux[np.arange(1, n), np.arange(n - 1)] = -a
    return np.diff(flux, axis=0) / grid.m[:, None]


def thomas(cl, cr, diag, rhs, D, cp, dp, out):
    # rows -D*cl[i], diag[i], -D*cr[i]
    n = out.shape[0]
    piv = diag[0]
    if piv == 0.0:
        raise np.linalg.LinAlgError("zero pivot in row 0")
    cp[0] = -D * cr[0] / piv
    dp[0] = rhs[0] / piv
    for i in range(1, n):
        low = -D * cl[i]
        piv = diag[i] - low * cp[i - 1]
        if piv == 0.0:
            raise np.linalg.LinAlgError(f"zero pivot in row {i}")
        cp[i] = -D * cr[i] / piv
        dp[i] = (rhs[i] - low * dp[i - 1]) / piv
    out[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        out[i] = dp[i] - cp[i] * out[i + 1]


def f(x, eps):  # the uptake response F, as model.f_eps
    return x if eps == 0.0 else x / (1.0 + eps * x)


def fill_sink(sink, uv, huv, extrapolate, beta, gamma, eps, scratch):
    # scratch is not used
    (u, v), (hu, hv) = uv, huv
    for i in range(u.shape[0]):
        if extrapolate:
            e = 2.0 * u[i] - hu[i]
            us = e if e > 0.0 else 0.0
            vs = 2.0 * v[i] - hv[i]
        else:
            us = u[i]
            vs = v[i]
        sink[i] = beta * f(us, eps) + gamma * vs


def cap_terms(w, sink, w_positive):
    # every cap term from w itself: w_positive is not used
    dw = smax = wmax = 0.0
    for i in range(w.shape[0]):
        if i > 0:
            dw = max(dw, abs(w[i] - w[i - 1]))
        if w[i] > 0.0:
            smax = max(smax, sink[i])
        wmax = max(wmax, w[i])
    return dw, smax, wmax


def attempt(ws, sbdf2, dt, params):
    (w, u, v), (hw, hu, _), (wn, un, vn) = ws.y, ws.hy, ws.yn
    nn, hnu, sink = ws.nn, ws.hnu, ws.sink
    m, af, h, w_snap = ws.m, ws.af, ws.h, ws.w_snap
    cl, cr = couplings(m, af, h)
    D_u, D_w, chi, eps = params.D_u, params.D_w, params.chi, params.eps_reg
    alpha, delta = params.alpha, params.delta
    n = u.shape[0]
    diag, rhs, cp, dp = np.empty((4, n))
    gflux = np.empty(n + 1)

    # ---- implicit w solve:  (c0 + sink) w+ - D_w lap w+ = rhs
    r2 = 1.0 / (2.0 * dt)
    if sbdf2:
        c0 = 3.0 / (2.0 * dt)
        for i in range(n):
            rhs[i] = (4.0 * w[i] - hw[i]) * r2
    else:
        c0 = 1.0 / dt
        for i in range(n):
            rhs[i] = w[i] * c0
    for i in range(n):
        diag[i] = c0 + sink[i] + D_w * (cl[i] + cr[i])
    thomas(cl, cr, diag, rhs, D_w, cp, dp, wn)
    wn_min = math.inf
    for i in range(n):
        if not wn[i] >= -w_snap:
            return "w", i
        if wn[i] < w_snap:
            wn[i] = 0.0
        wn_min = min(wn_min, wn[i])
    ws.wn_min = wn_min

    # ---- exact multiplicative v update (trapezoidal w average)
    for i in range(n):
        vn[i] = v[i] * math.exp(alpha * dt * 0.5 * (w[i] + wn[i]))

    # ---- m-weighted explicit terms for u at the current level (upwind
    # taxis)
    gflux[0] = 0.0
    gflux[n] = 0.0
    for j in range(1, n):
        gw = chi * (w[j] - w[j - 1]) / h
        if gw > 0.0:
            ud = u[j - 1]
        else:
            ud = u[j]
        if eps == 0.0:
            mo = ud
        else:
            q = 1.0 + eps * ud
            mo = ud / (q * q)
        gflux[j] = af[j] * gw * mo
    for i in range(n):
        nn[i] = -(gflux[i + 1] - gflux[i]) + m[i] * delta * f(u[i], eps) * w[i]

    # ---- implicit-diffusion u solve
    if sbdf2:
        for i in range(n):
            rhs[i] = (4.0 * u[i] - hu[i]) * r2 + (2.0 * nn[i] - hnu[i]) / m[i]
    else:
        for i in range(n):
            rhs[i] = u[i] * c0 + nn[i] / m[i]
    for i in range(n):
        diag[i] = c0 + D_u * (cl[i] + cr[i])
    thomas(cl, cr, diag, rhs, D_u, cp, dp, un)
    for i in range(n):
        if not 0.0 < un[i] < math.inf:
            return "u", i
    for i in range(n):
        if not vn[i] < math.inf:
            return "v", i
    return None
