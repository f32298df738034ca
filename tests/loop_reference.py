"""The explicit-loop reference of the stepping kernel.

``segment_loops`` is :func:`nutaxis.kernels._make_segment`, the controller
``segment_numpy`` runs, built over plain-loop primitives: one Thomas sweep
serves both implicit solves.  It is slow and exists for tests, which run it
with ``monkeypatch.setattr(kernels, "segment_numpy", segment_loops)``.  It
agrees with the numpy kernel to roundoff (~1e-12 relative), not bitwise,
because LAPACK ``dgtsv`` and the Thomas sweep round differently.
"""
import math

from nutaxis import kernels
from nutaxis.kernels import (
    STATUS_OK,
    STATUS_SINGULAR,
    STATUS_U_POSITIVITY,
    STATUS_W_POSITIVITY,
    U_FLOOR,
)


def thomas(cl, cr, diag, rhs, D, cp, dp, out):
    # rows -D*cl[i], diag[i], -D*cr[i]; returns the zero pivot's row or -1
    n = out.shape[0]
    piv = diag[0]
    if piv == 0.0:
        return 0
    cp[0] = -D * cr[0] / piv
    dp[0] = rhs[0] / piv
    for i in range(1, n):
        low = -D * cl[i]
        piv = diag[i] - low * cp[i - 1]
        if piv == 0.0:
            return i
        cp[i] = -D * cr[i] / piv
        dp[i] = (rhs[i] - low * dp[i - 1]) / piv
    out[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        out[i] = dp[i] - cp[i] * out[i + 1]
    return -1


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


def attempt(u, v, w, hu, hw, hnu, sink, sbdf2, dt,
            m, cl, cr, af, h,
            D_u, D_w, chi, alpha, delta, eps, w_snap,
            un, vn, wn, nn, work):
    n = u.shape[0]
    diag = work[0]
    rhs = work[1]
    cp = work[2]
    dp = work[3]
    gflux = work[4]

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
    bad = thomas(cl, cr, diag, rhs, D_w, cp, dp, wn)
    if bad >= 0:
        return STATUS_SINGULAR, bad
    for i in range(n):
        if wn[i] < -w_snap:
            return STATUS_W_POSITIVITY, i
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
    bad = thomas(cl, cr, diag, rhs, D_u, cp, dp, un)
    if bad >= 0:
        return STATUS_SINGULAR, bad
    for i in range(n):
        if un[i] <= U_FLOOR:
            return STATUS_U_POSITIVITY, i
    return STATUS_OK, -1


segment_loops = kernels._make_segment(fill_sink, cap_terms, attempt)
