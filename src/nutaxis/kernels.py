"""Hot time-stepping kernels: a fused per-segment loop in two backends.

The same segment-advance algorithm exists twice:

* ``segment_loops`` — explicit-loop implementation, compiled with
  ``numba.njit(cache=True)`` when numba is importable.  This is the fast
  path: one call integrates a whole output interval (potentially millions of
  steps) without touching the interpreter.
* ``segment_numpy`` — vectorized numpy/scipy implementation of the identical
  algorithm (tridiagonal solves via ``scipy.linalg.solve_banded``, taxis via
  :func:`nutaxis.operators.taxis_flux`).  Fallback and readable reference.

These are the only place a step is taken; :func:`nutaxis.stepper.advance`
drives them one output interval at a time.

Backend selection: env var ``NUTAXIS_NUMBA`` — ``"0"`` forces numpy,
``"1"`` requires numba, unset/anything else prefers numba when available.
Each backend is bitwise deterministic run-to-run (single-threaded, no
fastmath); the two backends agree to roundoff (~1e-12 relative), not bitwise,
because LAPACK and the in-kernel Thomas sweep round differently.

Segment algorithm (both backends):
  repeat until the remaining gap is exhausted:
    1. extrapolants u* = max(2u - u_prev, 0), v* = 2v - v_prev
       (u* clamped so the nutrient sink stays nonnegative; plain (u, v) when
       no valid two-step history exists),
    2. step-size caps: chemotaxis CFL cfl_safety*h/max|chi grad w|;
       sink cap SINK_DT_CAP/max(beta f(u*) + gamma v*) over cells with w > 0
       (keeps the implicit two-step decay in its over-damped regime);
       source cap SOURCE_DT_CAP/(max(delta, alpha) * max w),
    3. integerize dt so the segment lands exactly on its end time; any dt
       change rebuilds the two-step history with one backward-Euler step,
    4. implicit w solve with frozen extrapolated sink, rejection if
       w < -w_snap, then snap-to-zero of entries below w_snap (W_SNAP_REL
       times the run's initial max w),
    5. exact multiplicative v update with trapezoidal w average,
    6. implicit-diffusion u solve with explicit upwind taxis + growth terms,
       rejection if u <= U_FLOOR,
    7. on rejection: halve dt and retry (up to max_retries, not below dt_min);
       dt may grow back (step 3) only after the next accepted step.

Status codes returned: 0 ok, 1 u-positivity failure, 2 w-positivity failure,
3 singular tridiagonal solve.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .model import f_eps
from .operators import taxis_flux

try:  # pragma: no cover - exercised implicitly by backend tests
    import numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover
    numba = None
    NUMBA_AVAILABLE = False

__all__ = [
    "NUMBA_AVAILABLE",
    "backend_choice",
    "get_segment_runner",
    "segment_numpy",
    "segment_loops",
    "solve_tridiag",
]

STATUS_OK = 0
STATUS_U_POSITIVITY = 1
STATUS_W_POSITIVITY = 2
STATUS_SINGULAR = 3

_GROWTH_FACTOR = 2.0  # dt may grow only when the caps allow at least 2x
U_FLOOR = 1e-14  # a step with some u+ <= U_FLOOR is rejected
# bound on dt * max(nutrient sink rate); 0.45 keeps the two-step decay
# over-damped (real roots need dt * rate <= 0.5)
SINK_DT_CAP = 0.45
SOURCE_DT_CAP = 0.45  # bound on dt * max(delta, alpha) * max w
W_SNAP_REL = 1e-250  # snap-to-zero floor for w, relative to the initial max


def backend_choice() -> str:
    """Resolve the kernel backend from NUTAXIS_NUMBA ("numba" or "numpy")."""
    env = os.environ.get("NUTAXIS_NUMBA", "").strip().lower()
    if env in ("0", "false", "no", "numpy"):
        return "numpy"
    if env in ("1", "true", "yes", "numba"):
        if not NUMBA_AVAILABLE:
            raise ImportError("NUTAXIS_NUMBA=1 but numba is not importable")
        return "numba"
    return "numba" if NUMBA_AVAILABLE else "numpy"


# ---------------------------------------------------------------------------
# single-source loop implementation (njit-compiled when numba is present)
# ---------------------------------------------------------------------------

def segment_loops(u, v, w, hu, hv, hw, hnu, hmeta, rem,
                  m, cl, cr, af, h,
                  D_u, D_w, chi, alpha, beta, gamma, delta, eps,
                  dt_base, dt_min, cfl_safety, max_retries, scheme2):
    n = u.shape[0]
    # work arrays
    us = np.empty(n)
    vs = np.empty(n)
    sink = np.empty(n)
    diag = np.empty(n)
    rhs = np.empty(n)
    cp = np.empty(n)
    dp = np.empty(n)
    wn = np.empty(n)
    un = np.empty(n)
    vn = np.empty(n)
    nn = np.empty(n)
    gflux = np.empty(n + 1)
    gflux[0] = 0.0
    gflux[n] = 0.0

    hdt = hmeta[0]
    hvalid = hmeta[1] > 0.5
    w_snap = hmeta[2]

    accepted = 0
    rejected = 0
    rebuilds = 0
    min_dt = np.inf
    status = STATUS_OK
    info_cell = -1

    dt = hdt if hvalid else 0.0  # continue the two-step scheme across segments
    k = 0  # steps remaining at the current dt
    retries = 0
    rebuild_pending = not hvalid

    while True:
        if k == 0 and rem <= 0.0:
            break

        # ---- extrapolants (consistent with the scheme of the next attempt)
        two_step = scheme2 == 1 and hvalid and not rebuild_pending
        if two_step:
            for i in range(n):
                e = 2.0 * u[i] - hu[i]
                us[i] = e if e > 0.0 else 0.0
                vs[i] = 2.0 * v[i] - hv[i]
        else:
            for i in range(n):
                us[i] = u[i]
                vs[i] = v[i]

        # ---- step-size caps from the current state
        cap = dt_base
        if chi > 0.0:
            gmax = 0.0
            for j in range(1, n):
                gv = w[j] - w[j - 1]
                if gv < 0.0:
                    gv = -gv
                if gv > gmax:
                    gmax = gv
            gmax = chi * gmax / h
            if gmax > 0.0:
                c = cfl_safety * h / gmax
                if c < cap:
                    cap = c
        smax = 0.0
        for i in range(n):
            if eps == 0.0:
                fu = us[i]
            else:
                fu = us[i] / (1.0 + eps * us[i])
            s = beta * fu + gamma * vs[i]
            sink[i] = s
            if w[i] > 0.0 and s > smax:
                smax = s
        if smax > 0.0:
            c = SINK_DT_CAP / smax
            if c < cap:
                cap = c
        wmax = 0.0
        for i in range(n):
            if w[i] > wmax:
                wmax = w[i]
        rmax = delta if delta > alpha else alpha
        if rmax * wmax > 0.0:
            c = SOURCE_DT_CAP / (rmax * wmax)
            if c < cap:
                cap = c

        # ---- (re)integerize dt so the remaining gap is an exact multiple
        if k == 0:
            dt_cand = cap
            new_schedule = True
        elif cap < dt:
            rem = k * dt
            dt_cand = cap
            new_schedule = True
        elif (cap >= _GROWTH_FACTOR * dt and dt < dt_base and k > 1
              and retries == 0):
            rem = k * dt
            dt_cand = _GROWTH_FACTOR * dt
            if dt_cand > cap:
                dt_cand = cap
            new_schedule = True
        else:
            new_schedule = False
        if new_schedule:
            nsteps = int(math.ceil(rem / dt_cand - 1e-12))
            if nsteps < 1:
                nsteps = 1
            dt_new = rem / nsteps
            if dt_new != dt:
                rebuild_pending = True
            dt = dt_new
            k = nsteps
        sbdf2 = scheme2 == 1 and hvalid and not rebuild_pending and hdt == dt
        if not sbdf2 and two_step:
            # the sink must match the scheme actually used
            for i in range(n):
                if eps == 0.0:
                    fu = u[i]
                else:
                    fu = u[i] / (1.0 + eps * u[i])
                sink[i] = beta * fu + gamma * v[i]

        # ---- implicit w solve:  (c0 + sink) w+ - D_w lap w+ = rhs
        if sbdf2:
            c0 = 3.0 / (2.0 * dt)
            r2 = 1.0 / (2.0 * dt)
            for i in range(n):
                rhs[i] = (4.0 * w[i] - hw[i]) * r2
        else:
            c0 = 1.0 / dt
            for i in range(n):
                rhs[i] = w[i] * c0
        ok = True
        for i in range(n):
            diag[i] = c0 + sink[i] + D_w * (cl[i] + cr[i])
        # Thomas sweep (rows: low = -D_w*cl[i], up = -D_w*cr[i])
        piv = diag[0]
        if piv == 0.0:
            status = STATUS_SINGULAR
            info_cell = 0
            break
        cp[0] = -D_w * cr[0] / piv
        dp[0] = rhs[0] / piv
        for i in range(1, n):
            low = -D_w * cl[i]
            piv = diag[i] - low * cp[i - 1]
            if piv == 0.0:
                status = STATUS_SINGULAR
                info_cell = i
                ok = False
                break
            cp[i] = -D_w * cr[i] / piv
            dp[i] = (rhs[i] - low * dp[i - 1]) / piv
        if not ok:
            break
        wn[n - 1] = dp[n - 1]
        for i in range(n - 2, -1, -1):
            wn[i] = dp[i] - cp[i] * wn[i + 1]

        reject = False
        bad_cell = -1
        for i in range(n):
            if wn[i] < -w_snap:
                reject = True
                bad_cell = i
                break
        w_status = STATUS_W_POSITIVITY

        if not reject:
            for i in range(n):
                if wn[i] < w_snap:
                    wn[i] = 0.0

            # ---- exact multiplicative v update (trapezoidal w average)
            for i in range(n):
                vn[i] = v[i] * math.exp(alpha * dt * 0.5 * (w[i] + wn[i]))

            # ---- explicit terms for u at the current level (upwind taxis)
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
                if eps == 0.0:
                    fu = u[i]
                else:
                    fu = u[i] / (1.0 + eps * u[i])
                nn[i] = -(gflux[i + 1] - gflux[i]) / m[i] + delta * fu * w[i]

            # ---- implicit-diffusion u solve
            if sbdf2:
                r2 = 1.0 / (2.0 * dt)
                for i in range(n):
                    rhs[i] = (4.0 * u[i] - hu[i]) * r2 + 2.0 * nn[i] - hnu[i]
            else:
                for i in range(n):
                    rhs[i] = u[i] * c0 + nn[i]
            for i in range(n):
                diag[i] = c0 + D_u * (cl[i] + cr[i])
            piv = diag[0]
            if piv == 0.0:
                status = STATUS_SINGULAR
                info_cell = 0
                break
            cp[0] = -D_u * cr[0] / piv
            dp[0] = rhs[0] / piv
            for i in range(1, n):
                low = -D_u * cl[i]
                piv = diag[i] - low * cp[i - 1]
                if piv == 0.0:
                    status = STATUS_SINGULAR
                    info_cell = i
                    ok = False
                    break
                cp[i] = -D_u * cr[i] / piv
                dp[i] = (rhs[i] - low * dp[i - 1]) / piv
            if not ok:
                break
            un[n - 1] = dp[n - 1]
            for i in range(n - 2, -1, -1):
                un[i] = dp[i] - cp[i] * un[i + 1]

            for i in range(n):
                if un[i] <= U_FLOOR:
                    reject = True
                    bad_cell = i
                    break
            w_status = STATUS_U_POSITIVITY

        if reject:
            rejected += 1
            retries += 1
            if retries > max_retries or 0.5 * dt < dt_min:
                status = w_status
                info_cell = bad_cell
                break
            rem = k * dt
            dt_cand = 0.5 * dt
            nsteps = int(math.ceil(rem / dt_cand - 1e-12))
            if nsteps < 1:
                nsteps = 1
            dt = rem / nsteps
            k = nsteps
            rebuild_pending = True
            continue

        # ---- accept
        retries = 0
        for i in range(n):
            hu[i] = u[i]
            hv[i] = v[i]
            hw[i] = w[i]
            hnu[i] = nn[i]
            u[i] = un[i]
            v[i] = vn[i]
            w[i] = wn[i]
        hdt = dt
        hvalid = True
        rebuild_pending = False
        if not sbdf2:
            rebuilds += 1
        accepted += 1
        if dt < min_dt:
            min_dt = dt
        k -= 1
        rem = k * dt
        if k == 0:
            break

    hmeta[0] = hdt
    hmeta[1] = 1.0 if hvalid else 0.0
    return status, info_cell, accepted, rejected, rebuilds, min_dt


# segment_loops itself stays python-callable (slow) as a reference
_segment_numba = (numba.njit(cache=True, fastmath=False)(segment_loops)
                  if NUMBA_AVAILABLE else None)


# ---------------------------------------------------------------------------
# vectorized numpy/scipy fallback (identical algorithm)
# ---------------------------------------------------------------------------

def solve_tridiag(cl, cr, diag, rhs, D):
    """Solve the tridiagonal system with rows ``-D*cl[i], diag[i], -D*cr[i]``.

    ``cl`` and ``cr`` are the face couplings from
    :func:`nutaxis.stepper.grid_coefficients`.
    """
    from scipy.linalg import solve_banded

    n = diag.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = -D * cr[:-1]
    ab[1, :] = diag
    ab[2, :-1] = -D * cl[1:]
    return solve_banded((1, 1), ab, rhs, check_finite=False)


def attempt_step_numpy(u, v, w, hu, hw, hnu, sink, sbdf2, dt,
                       m, cl, cr, af, h,
                       D_u, D_w, chi, alpha, delta, eps, w_snap):
    """One step attempt (no retries).

    Returns ``(status, bad_cell, un, vn, wn, nn)`` where status is one of the
    module STATUS codes and ``nn`` is the explicit u-term at the entry level
    (to be stored as history for the next two-step stage).  Inputs are not
    modified.
    """
    if sbdf2:
        c0 = 3.0 / (2.0 * dt)
        rhs_w = (4.0 * w - hw) / (2.0 * dt)
    else:
        c0 = 1.0 / dt
        rhs_w = w * c0
    diag_w = c0 + sink + D_w * (cl + cr)
    try:
        wn = solve_tridiag(cl, cr, diag_w, rhs_w, D_w)
    except Exception:
        return STATUS_SINGULAR, -1, None, None, None, None

    if wn.min() < -w_snap:
        return STATUS_W_POSITIVITY, int(np.argmax(wn < -w_snap)), None, None, None, None
    wn = np.where(wn < w_snap, 0.0, wn)
    vn = v * np.exp(alpha * dt * 0.5 * (w + wn))

    gflux = taxis_flux(u, w, af, h, chi, eps)
    nn = -np.diff(gflux) / m + delta * f_eps(u, eps) * w

    if sbdf2:
        rhs_u = (4.0 * u - hu) / (2.0 * dt) + 2.0 * nn - hnu
    else:
        rhs_u = u * c0 + nn
    diag_u = c0 + D_u * (cl + cr)
    try:
        un = solve_tridiag(cl, cr, diag_u, rhs_u, D_u)
    except Exception:
        return STATUS_SINGULAR, -1, None, None, None, None
    if un.min() <= U_FLOOR:
        return STATUS_U_POSITIVITY, int(np.argmax(un <= U_FLOOR)), None, None, None, None
    return STATUS_OK, -1, un, vn, wn, nn


def segment_numpy(u, v, w, hu, hv, hw, hnu, hmeta, rem,
                  m, cl, cr, af, h,
                  D_u, D_w, chi, alpha, beta, gamma, delta, eps,
                  dt_base, dt_min, cfl_safety, max_retries, scheme2):
    """Vectorized twin of :func:`segment_loops`; see module docstring."""
    hdt = hmeta[0]
    hvalid = hmeta[1] > 0.5
    w_snap = hmeta[2]

    accepted = rejected = rebuilds = 0
    min_dt = np.inf
    status = STATUS_OK
    info_cell = -1
    dt = hdt if hvalid else 0.0
    k = 0
    retries = 0
    rebuild_pending = not hvalid

    while True:
        if k == 0 and rem <= 0.0:
            break

        two_step = scheme2 == 1 and hvalid and not rebuild_pending
        if two_step:
            us = np.maximum(2.0 * u - hu, 0.0)
            vs = 2.0 * v - hv
        else:
            us, vs = u, v

        cap = dt_base
        if chi > 0.0:
            gmax = chi * np.max(np.abs(np.diff(w))) / h
            if gmax > 0.0:
                cap = min(cap, cfl_safety * h / gmax)
        sink = beta * f_eps(us, eps) + gamma * vs
        pos = w > 0.0
        if pos.any():
            smax = float(sink[pos].max())
            if smax > 0.0:
                cap = min(cap, SINK_DT_CAP / smax)
        wmax = float(w.max())
        rmax = max(delta, alpha)
        if rmax * wmax > 0.0:
            cap = min(cap, SOURCE_DT_CAP / (rmax * wmax))

        if k == 0:
            dt_cand, new_schedule = cap, True
        elif cap < dt:
            rem = k * dt
            dt_cand, new_schedule = cap, True
        elif (cap >= _GROWTH_FACTOR * dt and dt < dt_base and k > 1
              and retries == 0):
            rem = k * dt
            dt_cand, new_schedule = min(_GROWTH_FACTOR * dt, cap), True
        else:
            new_schedule = False
        if new_schedule:
            nsteps = max(int(math.ceil(rem / dt_cand - 1e-12)), 1)
            dt_new = rem / nsteps
            if dt_new != dt:
                rebuild_pending = True
            dt, k = dt_new, nsteps
        sbdf2 = (scheme2 == 1) and hvalid and not rebuild_pending and hdt == dt
        if not sbdf2 and two_step:
            sink = beta * f_eps(u, eps) + gamma * v

        status_step, bad_cell, un, vn, wn, nn = attempt_step_numpy(
            u, v, w, hu, hw, hnu, sink, sbdf2, dt,
            m, cl, cr, af, h, D_u, D_w, chi, alpha, delta, eps, w_snap)
        if status_step == STATUS_SINGULAR:
            status, info_cell = STATUS_SINGULAR, bad_cell
            break

        if status_step != STATUS_OK:
            rejected += 1
            retries += 1
            if retries > max_retries or 0.5 * dt < dt_min:
                status, info_cell = status_step, bad_cell
                break
            rem = k * dt
            nsteps = max(int(math.ceil(rem / (0.5 * dt) - 1e-12)), 1)
            dt = rem / nsteps
            k = nsteps
            rebuild_pending = True
            continue

        retries = 0
        hu[:] = u
        hv[:] = v
        hw[:] = w
        hnu[:] = nn
        u[:] = un
        v[:] = vn
        w[:] = wn
        hdt = dt
        hvalid = True
        rebuild_pending = False
        if not sbdf2:
            rebuilds += 1
        accepted += 1
        min_dt = min(min_dt, dt)
        k -= 1
        rem = k * dt
        if k == 0:
            break

    hmeta[0] = hdt
    hmeta[1] = 1.0 if hvalid else 0.0
    return status, info_cell, accepted, rejected, rebuilds, min_dt


def get_segment_runner(backend: str | None = None):
    """Return ``(name, callable)`` for the requested/auto-selected backend."""
    name = backend or backend_choice()
    if name == "numba":
        if _segment_numba is None:
            raise ImportError("numba backend requested but numba is unavailable")
        return "numba", _segment_numba
    if name == "numpy":
        return "numpy", segment_numpy
    raise ValueError(f"unknown backend {name!r}")
