"""The explicit-loop reference of the stepping kernel's primitives.

:func:`install` replaces the three array primitives that
:func:`nutaxis.kernels.segment_numpy` looks up at each use
(``attempt_step_numpy``, ``_fill_sink_numpy`` and ``_cap_terms_numpy``) by
the plain loops below, with one Thomas sweep for both implicit solves; the
controller is shared.  It is slow and exists for tests.  It agrees with
the numpy kernel to roundoff (~1e-12 relative), not bitwise, because
LAPACK ``dgtsv`` and the Thomas sweep round differently.
"""
import math

import numpy as np

from nutaxis import kernels
from nutaxis.kernels import U_FLOOR


def install(monkeypatch):
    """Run the kernel over the loop primitives for the monkeypatch's life."""
    monkeypatch.setattr(kernels, "attempt_step_numpy", attempt)
    monkeypatch.setattr(kernels, "_fill_sink_numpy", fill_sink)
    monkeypatch.setattr(kernels, "_cap_terms_numpy", cap_terms)


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


def fill_sink(sink, u, v, hu, hv, extrapolate, beta, gamma, eps):
    for i in range(u.shape[0]):
        if extrapolate:
            e = 2.0 * u[i] - hu[i]
            us = e if e > 0.0 else 0.0
            vs = 2.0 * v[i] - hv[i]
        else:
            us = u[i]
            vs = v[i]
        sink[i] = beta * f(us, eps) + gamma * vs


def cap_terms(w, sink):
    dw = smax = wmax = 0.0
    for i in range(w.shape[0]):
        if i > 0:
            dw = max(dw, abs(w[i] - w[i - 1]))
        if w[i] > 0.0:
            smax = max(smax, sink[i])
        wmax = max(wmax, w[i])
    return dw, smax, wmax


def attempt(state, ws, sbdf2, dt, params):
    u, v, w, hu, hw, hnu = state.u, state.v, state.w, ws.hu, ws.hw, ws.hnu
    un, vn, wn, nn, sink = ws.un, ws.vn, ws.wn, ws.nn, ws.sink
    m, cl, cr, af, h, w_snap = ws.m, ws.cl, ws.cr, ws.af, ws.h, ws.w_snap
    D_u, D_w, chi, eps = params.D_u, params.D_w, params.chi, params.eps_reg
    alpha, delta = params.alpha, params.delta
    n = u.shape[0]
    diag, rhs, cp, dp, gflux = ws.work

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
    for i in range(n):
        if wn[i] < -w_snap:
            return "w", i
        if wn[i] < w_snap:
            wn[i] = 0.0

    # ---- exact multiplicative v update (trapezoidal w average)
    for i in range(n):
        vn[i] = v[i] * math.exp(alpha * dt * 0.5 * (w[i] + wn[i]))

    # ---- explicit terms for u at the current level (upwind taxis)
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
        nn[i] = -(gflux[i + 1] - gflux[i]) / m[i] + delta * f(u[i], eps) * w[i]

    # ---- implicit-diffusion u solve
    if sbdf2:
        for i in range(n):
            rhs[i] = (4.0 * u[i] - hu[i]) * r2 + 2.0 * nn[i] - hnu[i]
    else:
        for i in range(n):
            rhs[i] = u[i] * c0 + nn[i]
    for i in range(n):
        diag[i] = c0 + D_u * (cl[i] + cr[i])
    thomas(cl, cr, diag, rhs, D_u, cp, dp, un)
    for i in range(n):
        if un[i] <= U_FLOOR:
            return "u", i
    return None

