"""Hot time-stepping kernels: one segment controller over array primitives.

The adaptive segment controller is written once, by ``_make_segment``: the
dt caps, the dt schedule, the SBDF1/SBDF2 and rebuild decision, retry
halving, the step statistics and the history swap.  It takes three array
primitives:

* ``fill_sink`` — the nutrient sink from ``(u, v)`` or their extrapolants,
* ``cap_terms`` — ``max|w[j] - w[j-1]|``, the max sink over cells with
  ``w > 0`` and ``max w``,
* ``attempt`` — one step attempt; fills ``un, vn, wn, nn`` in place and
  returns ``(status, cell)``.

Built over the vectorized primitives it is ``segment_numpy``, whose step
attempt is :func:`attempt_step_numpy`: LAPACK ``dgtsv``, called directly by
:func:`solve_tridiag`, solves in place in ``wn`` and ``un``; the diagonals,
off-diagonals and the face fluxes of :func:`nutaxis.operators.taxis_flux`
are kept in the controller's ``work`` rows, so with ``eps == 0`` the
attempt allocates no float array.  The runner is bitwise deterministic
run-to-run and reads the module constants (such as ``MAX_RETRIES``) at
each call.  The test suite builds a second controller over explicit-loop
primitives as a reference; it agrees to roundoff (~1e-12 relative), not
bitwise, because LAPACK and a Thomas sweep round differently.

This is the only place a step is taken; :func:`nutaxis.stepper.advance`
drives it one output interval at a time.

Segment algorithm:
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
    7. on rejection: halve dt and retry (up to MAX_RETRIES times);
       dt may grow back (step 3) only after the next accepted step.

A runner returns ``(status, cell, accepted, rejected, rebuilds, min_dt, dt,
left)``.  Status codes: 0 ok, 1 u-positivity failure, 2 w-positivity
failure, 3 singular tridiagonal solve.  On failure ``dt`` is the failing
attempt's step and ``left`` the time from the state it started from to the
end of the segment.
"""
from __future__ import annotations

import math

import numpy as np

from .model import f_eps
from .operators import taxis_flux

__all__ = [
    "segment_numpy",
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
MAX_RETRIES = 12  # rejection halvings allowed per step
W_SNAP_REL = 1e-250  # snap-to-zero floor for w, relative to the initial max


# ---------------------------------------------------------------------------
# the segment controller
# ---------------------------------------------------------------------------

def _make_segment(fill_sink, cap_terms, attempt):
    """The segment controller over the given array primitives."""

    def segment(u, v, w, hu, hv, hw, hnu, hmeta, rem,
                m, cl, cr, af, h,
                D_u, D_w, chi, alpha, beta, gamma, delta, eps,
                dt_base, cfl_safety, scheme2):
        n = u.shape[0]
        sink = np.empty(n)
        un = np.empty(n)
        vn = np.empty(n)
        wn = np.empty(n)
        nn = np.empty(n)
        work = np.empty((5, n + 1))  # scratch of the step attempt

        hdt = hmeta[0]
        hvalid = hmeta[1] > 0.5
        w_snap = hmeta[2]

        accepted = 0
        rejected = 0
        rebuilds = 0
        min_dt = np.inf
        status = STATUS_OK
        cell = -1

        dt = hdt if hvalid else 0.0  # continue the two-step scheme across segments
        k = 0  # steps remaining at the current dt
        retries = 0
        halve = False
        rebuild_pending = not hvalid

        while k > 0 or rem > 0.0:
            # ---- sink at the extrapolants of the next attempt, and the caps
            two_step = scheme2 == 1 and hvalid and not rebuild_pending
            fill_sink(sink, u, v, hu, hv, two_step, beta, gamma, eps)
            dw, smax, wmax = cap_terms(w, sink)
            cap = dt_base
            if chi > 0.0:
                gmax = chi * dw / h
                if gmax > 0.0:
                    cap = min(cap, cfl_safety * h / gmax)
            if smax > 0.0:
                cap = min(cap, SINK_DT_CAP / smax)
            rmax = max(delta, alpha)
            if rmax * wmax > 0.0:
                cap = min(cap, SOURCE_DT_CAP / (rmax * wmax))

            # ---- fit dt so the remaining gap is an exact multiple of it;
            # a rejected step's halved dt is fitted first, then capped
            while True:
                if halve:
                    dt_cand = 0.5 * dt
                elif k == 0 or cap < dt:
                    dt_cand = cap
                elif (cap >= _GROWTH_FACTOR * dt and dt < dt_base and k > 1
                      and retries == 0):
                    dt_cand = min(_GROWTH_FACTOR * dt, cap)
                else:
                    break
                if k > 0:
                    rem = k * dt
                k = max(int(math.ceil(rem / dt_cand - 1e-12)), 1)
                dt_new = rem / k
                if dt_new != dt:
                    rebuild_pending = True
                dt = dt_new
                if not halve:
                    break
                halve = False

            sbdf2 = scheme2 == 1 and hvalid and not rebuild_pending and hdt == dt
            if two_step and not sbdf2:
                # the sink must match the scheme actually used
                fill_sink(sink, u, v, hu, hv, False, beta, gamma, eps)

            status, cell = attempt(u, v, w, hu, hw, hnu, sink, sbdf2, dt,
                                   m, cl, cr, af, h,
                                   D_u, D_w, chi, alpha, delta, eps, w_snap,
                                   un, vn, wn, nn, work)
            if status == STATUS_SINGULAR:
                break
            if status != STATUS_OK:
                rejected += 1
                retries += 1
                if retries > MAX_RETRIES:
                    break
                halve = True
                rebuild_pending = True
                continue

            # ---- accept: the entry level becomes the history
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

        hmeta[0] = hdt
        hmeta[1] = 1.0 if hvalid else 0.0
        return status, cell, accepted, rejected, rebuilds, min_dt, dt, k * dt

    return segment


# ---------------------------------------------------------------------------
# vectorized numpy/scipy primitives
# ---------------------------------------------------------------------------

_dgtsv = None  # scipy.linalg.lapack.dgtsv, looked up on the first solve


def solve_tridiag(cl, cr, diag, rhs, D, work=None):
    """Solve the tridiagonal system with rows ``-D*cl[i], diag[i], -D*cr[i]``.

    ``cl`` and ``cr`` are the face couplings from
    :func:`nutaxis.stepper.grid_coefficients`.  Calls LAPACK ``dgtsv``
    (elimination with partial pivoting) directly: it is the routine
    ``scipy.linalg.solve_banded`` reaches for a ``(1, 1)`` band, so the
    solution is bitwise the same, without the band array and the input
    validation.  scipy is imported on the first call, not with the package.

    By default no argument is modified and the solution is a new array.
    With ``work`` (two float64 rows of at least ``n - 1`` entries) the
    solve runs in place and allocates nothing: the off-diagonals are built
    in ``work``, ``rhs`` is overwritten with the solution and returned, and
    ``diag`` and ``work`` are destroyed.

    Raises:
        np.linalg.LinAlgError: on an exactly zero pivot.
    """
    global _dgtsv
    if _dgtsv is None:  # deferred: importing scipy takes ~0.3 s
        from scipy.linalg.lapack import dgtsv as _dgtsv
    if work is None:
        dl, du, in_place = -D * cl[1:], -D * cr[:-1], 0
    else:
        n = rhs.shape[0]
        dl = np.multiply(cl[1:], -D, out=work[0, :n - 1])
        du = np.multiply(cr[:-1], -D, out=work[1, :n - 1])
        in_place = 1
    # positional flags (overwrite_dl, _d, _du, _b): f2py's keyword parsing
    # costs ~0.8 us per call
    *_, x, info = _dgtsv(dl, diag, du, rhs, 1, in_place, 1, in_place)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix: zero "
                                    f"pivot in row {info - 1}")
    if in_place and x is not rhs:  # f2py copied a non-contiguous rhs
        rhs[...] = x
        x = rhs
    return x


def attempt_step_numpy(u, v, w, hu, hw, hnu, sink, sbdf2, dt,
                       m, cl, cr, af, h,
                       D_u, D_w, chi, alpha, delta, eps, w_snap,
                       un, vn, wn, nn, work):
    """One step attempt (no retries), vectorized.

    Fills ``un, vn, wn, nn`` and returns ``(status, cell)`` with status one of
    the module STATUS codes, as the controller expects; ``nn`` is the explicit
    u-term at the entry level (the history of the next two-step stage).  The
    other inputs are not modified, except ``work`` (shape ``(5, n + 1)``),
    which is scratch: row 0 holds each solve's diagonal, row 1 ``cl + cr``,
    rows 2 and 3 each solve's off-diagonals (row 2 first holds a product
    term or the taxis flux difference), row 4 the n + 1 taxis face fluxes.
    Each right-hand side is built in ``wn`` or ``un``, where LAPACK solves
    in place.  Nothing is read from ``work`` before it is written.  Each
    expression is evaluated in place with the operations of its plain numpy
    form, so every value rounds as that form does.  With ``eps == 0`` no
    float array is allocated, only the n-byte masks of the upwind choice
    and, when some ``w+`` is snapped, of the snap.
    """
    n = u.shape[0]
    diag, csum, tmp = work[0, :n], work[1, :n], work[2, :n]
    # ---- implicit w solve:  (c0 + sink) w+ - D_w lap w+ = rhs
    if sbdf2:
        c0 = 3.0 / (2.0 * dt)
        np.multiply(w, 4.0, out=wn)  # (4 w - hw) / (2 dt)
        wn -= hw
        wn /= 2.0 * dt
    else:
        c0 = 1.0 / dt
        np.multiply(w, c0, out=wn)
    np.add(cl, cr, out=csum)
    np.multiply(csum, D_w, out=tmp)  # (c0 + sink) + D_w (cl + cr)
    np.add(sink, c0, out=diag)
    diag += tmp
    try:
        solve_tridiag(cl, cr, diag, wn, D_w, work[2:4])
    except np.linalg.LinAlgError:
        return STATUS_SINGULAR, -1
    wn_min = np.minimum.reduce(wn)
    if wn_min < -w_snap:
        return STATUS_W_POSITIVITY, int(np.argmax(wn < -w_snap))
    if not wn_min >= w_snap:  # snap to zero (a NaN minimum snaps too)
        np.copyto(wn, 0.0, where=wn < w_snap)

    # ---- exact multiplicative v update: v exp(alpha dt/2 (w + w+))
    np.add(w, wn, out=vn)
    vn *= alpha * dt * 0.5
    np.exp(vn, out=vn)
    vn *= v

    # ---- explicit u-term: -(flux difference)/m + delta F(u) w
    gflux = taxis_flux(u, w, af, h, chi, eps, out=work[4])
    np.subtract(gflux[1:], gflux[:-1], out=tmp)
    np.negative(tmp, out=tmp)
    tmp /= m
    np.multiply(f_eps(u, eps), delta, out=nn)
    nn *= w
    nn += tmp

    # ---- implicit-diffusion u solve
    if sbdf2:
        np.multiply(u, 4.0, out=un)  # (4 u - hu) / (2 dt) + 2 nn - hnu
        un -= hu
        un /= 2.0 * dt
        np.multiply(nn, 2.0, out=tmp)
        un += tmp
        un -= hnu
    else:
        np.multiply(u, c0, out=un)
        un += nn
    np.multiply(csum, D_u, out=diag)  # c0 + D_u (cl + cr)
    diag += c0
    try:
        solve_tridiag(cl, cr, diag, un, D_u, work[2:4])
    except np.linalg.LinAlgError:
        return STATUS_SINGULAR, -1
    if np.minimum.reduce(un) <= U_FLOOR:
        return STATUS_U_POSITIVITY, int(np.argmax(un <= U_FLOOR))
    return STATUS_OK, -1


def _fill_sink_numpy(sink, u, v, hu, hv, extrapolate, beta, gamma, eps):
    # beta F(u*) + gamma v*, with u* = max(2 u - hu, 0) and v* = 2 v - hv
    # when extrapolating; u* is built in sink, gamma v* in the one temporary
    # (this primitive's signature, shared with the loop reference of the
    # tests, carries no scratch buffer)
    if extrapolate:
        us = np.multiply(u, 2.0, out=sink)
        us -= hu
        np.maximum(us, 0.0, out=us)
        gv = np.multiply(v, 2.0)
        gv -= hv
        gv *= gamma
    else:
        us = u
        gv = np.multiply(v, gamma)
    np.multiply(f_eps(us, eps), beta, out=sink)
    sink += gv


def _cap_terms_numpy(w, sink):
    # as the loop reference: smax starts at 0.0, and a max is exact in any
    # order; the bare ufunc reductions skip the Python wrappers of
    # ndarray.max, and |w[j] - w[j-1]| is the one temporary
    dw = np.subtract(w[1:], w[:-1])
    np.absolute(dw, out=dw)
    return (float(np.maximum.reduce(dw)),
            float(np.maximum.reduce(sink, where=w > 0.0, initial=0.0)),
            float(np.maximum.reduce(w)))


# attempt_step_numpy is looked up as a module global at each attempt, so a
# patched or traced attempt_step_numpy sees every attempt
segment_numpy = _make_segment(_fill_sink_numpy, _cap_terms_numpy,
                              lambda *a: attempt_step_numpy(*a))

