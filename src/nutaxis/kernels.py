"""Hot time-stepping kernels: one segment controller over two backends.

The adaptive segment controller is written once, by ``_make_segment``: the
dt caps, the dt schedule, the SBDF1/SBDF2 and rebuild decision, retry
halving, the step statistics and the history swap.  A backend supplies only
three array primitives:

* ``fill_sink`` — the nutrient sink from ``(u, v)`` or their extrapolants,
* ``cap_terms`` — ``max|w[j] - w[j-1]|``, the max sink over cells with
  ``w > 0`` and ``max w``,
* ``attempt`` — one step attempt; fills ``un, vn, wn, nn`` in place and
  returns ``(status, cell)``.

Built over the explicit-loop primitives (one Thomas sweep serves both
solves), the controller is ``segment_loops``; compiled with
``numba.njit(cache=True)``, controller and primitives alike, it is the
``numba`` backend.  Uncompiled it is the slow ``loops`` reference.  Built
over the vectorized primitives it is ``segment_numpy``, whose step attempt
is :func:`attempt_step_numpy`: LAPACK ``dgtsv``, called directly by
:func:`solve_tridiag`, solves in place in ``wn`` and ``un``; the diagonals,
off-diagonals and the face fluxes of :func:`nutaxis.operators.taxis_flux`
are kept in the controller's ``work`` rows, so with ``eps == 0`` the
attempt allocates no float array.

These are the only place a step is taken; :func:`nutaxis.stepper.advance`
drives them one output interval at a time.

Backend selection: :func:`get_segment_runner` picks ``numba`` when numba
imports and ``numpy`` otherwise; ``loops`` is chosen only by name.  Each
backend is bitwise deterministic run-to-run (single-threaded, no fastmath);
the loop and numpy backends agree to roundoff (~1e-12 relative), not
bitwise, because LAPACK and the in-kernel Thomas sweep round differently.
The ``numpy`` and ``loops`` runners read the module constants (such as
``MAX_RETRIES``) at each call; ``numba`` freezes them when it compiles.

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

try:  # pragma: no cover - numba is an optional extra
    import numba
except ImportError:  # pragma: no cover
    numba = None
NUMBA_AVAILABLE = numba is not None

__all__ = [
    "NUMBA_AVAILABLE",
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
MAX_RETRIES = 12  # rejection halvings allowed per step
W_SNAP_REL = 1e-250  # snap-to-zero floor for w, relative to the initial max


# ---------------------------------------------------------------------------
# the segment controller (numba-compilable when its primitives are)
# ---------------------------------------------------------------------------

def _make_segment(fill_sink, cap_terms, attempt):
    """The segment controller over one backend's array primitives."""

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
        work = np.empty((5, n + 1))  # scratch of the loop attempt

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
# explicit-loop primitives (njit-compiled when numba is present)
# ---------------------------------------------------------------------------

def _loop_primitives(jit):
    """``(fill_sink, cap_terms, attempt)`` as explicit loops, each passed
    through ``jit``."""

    @jit
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

    @jit
    def f(x, eps):  # the uptake response F, as model.f_eps
        return x if eps == 0.0 else x / (1.0 + eps * x)

    @jit
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

    @jit
    def cap_terms(w, sink):
        dw = smax = wmax = 0.0
        for i in range(w.shape[0]):
            if i > 0:
                dw = max(dw, abs(w[i] - w[i - 1]))
            if w[i] > 0.0:
                smax = max(smax, sink[i])
            wmax = max(wmax, w[i])
        return dw, smax, wmax

    @jit
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

    return fill_sink, cap_terms, attempt


# segment_loops itself stays python-callable (slow) as a reference
segment_loops = _make_segment(*_loop_primitives(lambda fn: fn))

if NUMBA_AVAILABLE:  # pragma: no cover
    _njit = numba.njit(cache=True, fastmath=False)
    _segment_numba = _njit(_make_segment(*_loop_primitives(_njit)))
else:
    _segment_numba = None


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
    the module STATUS codes, as the loop attempt does; ``nn`` is the explicit
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
    # (this primitive's signature, shared with the loop backends, carries
    # no scratch buffer)
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
    # as the loop form: smax starts at 0.0, and a max is exact in any order;
    # the bare ufunc reductions skip the Python wrappers of ndarray.max, and
    # |w[j] - w[j-1]| is the one temporary
    dw = np.subtract(w[1:], w[:-1])
    np.absolute(dw, out=dw)
    return (float(np.maximum.reduce(dw)),
            float(np.maximum.reduce(sink, where=w > 0.0, initial=0.0)),
            float(np.maximum.reduce(w)))


# attempt_step_numpy is looked up as a module global at each attempt, so a
# patched or traced attempt_step_numpy sees every attempt
segment_numpy = _make_segment(_fill_sink_numpy, _cap_terms_numpy,
                              lambda *a: attempt_step_numpy(*a))


def get_segment_runner(backend: str | None = None):
    """Return ``(name, runner)`` for ``backend``: ``"numba"``, ``"numpy"``
    or ``"loops"`` (the uncompiled loop reference).

    ``None`` picks ``"numba"`` when numba imports and ``"numpy"`` otherwise.
    The runners are read from the module globals at each call.
    """
    name = backend or ("numba" if NUMBA_AVAILABLE else "numpy")
    runners = {"numba": _segment_numba, "numpy": segment_numpy,
               "loops": segment_loops}
    if name not in runners:
        raise ValueError(f"unknown backend {name!r}")
    if runners[name] is None:
        raise ImportError("numba backend requested but numba is unavailable")
    return name, runners[name]
