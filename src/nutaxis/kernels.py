"""Hot time-stepping kernel: one segment controller over array primitives.

:func:`segment_numpy` advances a state to the end of one output segment:
the dt caps, the dt schedule, the SBDF1/SBDF2 and rebuild decision, retry
halving, the step statistics and the history swap.  It works in the
:class:`Workspace` that :func:`nutaxis.stepper.advance` builds once per
run, so the two-step scheme carries across output segments, and it raises
:class:`PositivityViolation` and :class:`LinearSolveFailure` itself.

The controller looks up three array primitives as module globals at each
use, so a patched or traced primitive sees every call:

* ``_fill_sink_numpy`` — the nutrient sink from ``(u, v)`` or their
  extrapolants,
* ``_cap_terms_numpy`` — ``max|w[j] - w[j-1]|``, the max sink over cells
  with ``w > 0`` and ``max w``,
* :func:`attempt_step_numpy` — one step attempt; fills the workspace's
  ``un, vn, wn, nn`` and returns ``None``, or ``(field, cell)`` on a
  positivity failure.

A run is bitwise deterministic, and the module constants (such as
``MAX_RETRIES``) are read at each use.  The test suite swaps the three
primitives for explicit loops as a reference; it agrees to roundoff
(~1e-12 relative), not bitwise, because LAPACK and a Thomas sweep round
differently.

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
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .model import f_eps
from .operators import taxis_flux

__all__ = [
    "LinearSolveFailure",
    "PositivityViolation",
    "Workspace",
    "attempt_step_numpy",
    "grid_coefficients",
    "segment_numpy",
    "solve_tridiag",
]

_GROWTH_FACTOR = 2.0  # dt may grow only when the caps allow at least 2x
U_FLOOR = 1e-14  # a step with some u+ <= U_FLOOR is rejected
# bound on dt * max(nutrient sink rate); 0.45 keeps the two-step decay
# over-damped (real roots need dt * rate <= 0.5)
SINK_DT_CAP = 0.45
SOURCE_DT_CAP = 0.45  # bound on dt * max(delta, alpha) * max w
MAX_RETRIES = 12  # rejection halvings allowed per step
W_SNAP_REL = 1e-250  # snap-to-zero floor for w, relative to the initial max


class PositivityViolation(RuntimeError):
    """A field left its positive cone and dt could not be reduced further.

    ``t`` is the time of the state the failing step started from and ``dt``
    the size of its last attempt.
    """

    def __init__(self, fieldname: str, cell: int, t: float,
                 dt: Optional[float] = None):
        self.field = fieldname
        self.cell = cell
        self.t = t
        self.dt = dt
        at_dt = "" if dt is None else f", dt = {dt:.6g}"
        super().__init__(
            f"positivity violation in {fieldname!r} at cell {cell}, t = {t:.6g}"
            f"{at_dt}")


class LinearSolveFailure(RuntimeError):
    """The banded system was singular (cannot occur for dt > 0; internal).

    ``t`` and ``dt`` are as for :class:`PositivityViolation`.
    """

    def __init__(self, t: float, dt: float):
        self.t = t
        self.dt = dt
        super().__init__(f"singular tridiagonal system in the step from "
                         f"t = {t:.6g} with dt = {dt:.6g}")


def grid_coefficients(grid):
    """Per-grid coefficients ``(m, cl, cr, af, h)`` of the stepping kernel.

    Cell measures, the left and right face couplings of the implicit
    operators (see :func:`solve_tridiag`), face areas and the spacing.
    """
    n = grid.n
    af = grid.face_areas
    cl = np.zeros(n)
    cr = np.zeros(n)
    cl[1:] = af[1:-1] / (grid.h * grid.m[1:])
    cr[:-1] = af[1:-1] / (grid.h * grid.m[:-1])
    return grid.m, cl, cr, af, grid.h


class Workspace:
    """What the segments of one run share.

    ``m, cl, cr, af, h`` are the :func:`grid_coefficients`.  ``hu, hv, hw``
    are the previous accepted level, ``hnu`` its explicit u-term and
    ``hdt > 0`` the step that left it; ``hdt == 0`` while there is no such
    level.  ``w_snap`` is the snap-to-zero floor of w, ``W_SNAP_REL`` times
    the max of ``w0``.  ``sink``, the new level ``un, vn, wn, nn`` and
    ``work`` (shape ``(5, n + 1)``) are scratch of each attempt.
    """

    def __init__(self, grid, w0: np.ndarray):
        n = grid.n
        self.m, self.cl, self.cr, self.af, self.h = grid_coefficients(grid)
        self.hu, self.hv, self.hw, self.hnu = np.zeros((4, n))
        self.hdt = 0.0
        self.w_snap = W_SNAP_REL * float(np.max(w0, initial=0.0))
        self.sink, self.un, self.vn, self.wn, self.nn = np.empty((5, n))
        self.work = np.empty((5, n + 1))


# ---------------------------------------------------------------------------
# the segment controller
# ---------------------------------------------------------------------------

def segment_numpy(state, t_to, ws, params, cfg):
    """Advance ``state`` in place from ``state.t`` to ``t_to`` in ``ws``.

    ``params`` is the :class:`nutaxis.model.ModelParams` and ``cfg`` the
    :class:`nutaxis.stepper.StepperConfig` of the run.  Continues the
    two-step scheme from the history in ``ws`` and leaves the last accepted
    step's history there.  Returns ``(accepted, rejected, rebuilds,
    min_dt)``.

    Raises:
        PositivityViolation: a step was rejected MAX_RETRIES + 1 times.
        LinearSolveFailure: a tridiagonal solve was singular (not retried).
        Either carries the failing step's start time and last dt; ``state``
        is left at that start, ``state.t`` included.
    """
    u, v, w, sink = state.u, state.v, state.w, ws.sink
    beta, gamma, eps = params.beta, params.gamma, params.eps_reg
    chi, h, dt_base, cfl_safety = params.chi, ws.h, cfg.dt, cfg.cfl_safety
    rmax = max(params.delta, params.alpha)
    second_order = cfg.scheme == "sbdf2"

    accepted = 0
    rejected = 0
    rebuilds = 0
    min_dt = math.inf

    rem = t_to - state.t
    dt = ws.hdt  # continue the two-step scheme across segments
    k = 0  # steps remaining at the current dt
    retries = 0
    halve = False
    rebuild_pending = not dt > 0.0  # no valid history yet

    while k > 0 or rem > 0.0:
        # ---- sink at the extrapolants of the next attempt, and the caps
        two_step = second_order and not rebuild_pending
        _fill_sink_numpy(sink, u, v, ws.hu, ws.hv, two_step, beta, gamma, eps)
        dw, smax, wmax = _cap_terms_numpy(w, sink)
        cap = dt_base
        if chi > 0.0:
            gmax = chi * dw / h
            # compared before dividing: a subnormal gmax would overflow
            if cfl_safety * h < cap * gmax:
                cap = cfl_safety * h / gmax
        if smax > 0.0:
            cap = min(cap, SINK_DT_CAP / smax)
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

        sbdf2 = second_order and not rebuild_pending and ws.hdt == dt
        if two_step and not sbdf2:
            # the sink must match the scheme actually used
            _fill_sink_numpy(sink, u, v, ws.hu, ws.hv, False, beta, gamma, eps)

        try:
            failure = attempt_step_numpy(state, ws, sbdf2, dt, params)
        except np.linalg.LinAlgError as exc:
            state.t = max(state.t, t_to - k * dt)  # the failing step's start
            raise LinearSolveFailure(state.t, dt) from exc
        if failure is not None:
            rejected += 1
            retries += 1
            if retries > MAX_RETRIES:
                state.t = max(state.t, t_to - k * dt)
                raise PositivityViolation(*failure, state.t, dt)
            halve = True
            rebuild_pending = True
            continue

        # ---- accept: the entry level becomes the history
        retries = 0
        ws.hu[:] = u
        ws.hv[:] = v
        ws.hw[:] = w
        ws.hnu[:] = ws.nn
        u[:] = ws.un
        v[:] = ws.vn
        w[:] = ws.wn
        ws.hdt = dt
        rebuild_pending = False
        if not sbdf2:
            rebuilds += 1
        accepted += 1
        min_dt = min(min_dt, dt)
        k -= 1
        rem = k * dt

    state.t = t_to
    return accepted, rejected, rebuilds, float(min_dt)


# ---------------------------------------------------------------------------
# vectorized numpy/scipy primitives
# ---------------------------------------------------------------------------

_dgtsv = None  # scipy.linalg.lapack.dgtsv, looked up on the first solve


def solve_tridiag(cl, cr, diag, rhs, D, work=None):
    """Solve the tridiagonal system with rows ``-D*cl[i], diag[i], -D*cr[i]``.

    ``cl`` and ``cr`` are the face couplings from :func:`grid_coefficients`.
    Calls LAPACK ``dgtsv`` (elimination with partial pivoting) directly: it
    is the routine ``scipy.linalg.solve_banded`` reaches for a ``(1, 1)``
    band, so the solution is bitwise the same, without the band array and
    the input validation.  scipy is imported on the first call, not with
    the package.

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


def attempt_step_numpy(state, ws, sbdf2, dt, params):
    """One step attempt of ``dt`` from ``state`` in ``ws`` (no retries).

    Fills ``ws.un, ws.vn, ws.wn, ws.nn`` and returns ``None``, or
    ``(field, cell)`` when ``w+ < -w_snap`` or ``u+ <= U_FLOOR`` at
    ``cell``; ``nn`` is the explicit u-term at the entry level (the history
    of the next two-step stage).  Of the rest of ``ws`` only ``work`` is
    written: row 0 holds each solve's diagonal, row 1 ``cl + cr``, rows 2
    and 3 each solve's off-diagonals (row 2 first holds a product term or
    the taxis flux difference), row 4 the n + 1 taxis face fluxes.  Each
    right-hand side is built in ``wn`` or ``un``, where LAPACK ``dgtsv``
    (:func:`solve_tridiag`) solves in place.  Nothing is read from
    ``work`` before it is written.  Each expression is evaluated in place
    with the operations of its plain numpy form, so every value rounds as
    that form does.  With ``eps == 0`` no float array is allocated, only
    the n-byte masks of the upwind choice and, when some ``w+`` is
    snapped, of the snap.

    Raises:
        np.linalg.LinAlgError: from a singular tridiagonal solve.
    """
    u, v, w = state.u, state.v, state.w
    un, vn, wn, nn, work = ws.un, ws.vn, ws.wn, ws.nn, ws.work
    cl, cr, w_snap = ws.cl, ws.cr, ws.w_snap
    D_u, D_w, eps = params.D_u, params.D_w, params.eps_reg
    n = u.shape[0]
    diag, csum, tmp = work[0, :n], work[1, :n], work[2, :n]
    # ---- implicit w solve:  (c0 + sink) w+ - D_w lap w+ = rhs
    if sbdf2:
        c0 = 3.0 / (2.0 * dt)
        np.multiply(w, 4.0, out=wn)  # (4 w - hw) / (2 dt)
        wn -= ws.hw
        wn /= 2.0 * dt
    else:
        c0 = 1.0 / dt
        np.multiply(w, c0, out=wn)
    np.add(cl, cr, out=csum)
    np.multiply(csum, D_w, out=tmp)  # (c0 + sink) + D_w (cl + cr)
    np.add(ws.sink, c0, out=diag)
    diag += tmp
    solve_tridiag(cl, cr, diag, wn, D_w, work[2:4])
    wn_min = np.minimum.reduce(wn)
    if wn_min < -w_snap:
        return "w", int(np.argmax(wn < -w_snap))
    if not wn_min >= w_snap:  # snap to zero (a NaN minimum snaps too)
        np.copyto(wn, 0.0, where=wn < w_snap)

    # ---- exact multiplicative v update: v exp(alpha dt/2 (w + w+))
    np.add(w, wn, out=vn)
    vn *= params.alpha * dt * 0.5
    np.exp(vn, out=vn)
    vn *= v

    # ---- explicit u-term: -(flux difference)/m + delta F(u) w
    gflux = taxis_flux(u, w, ws.af, ws.h, params.chi, eps, out=work[4])
    np.subtract(gflux[1:], gflux[:-1], out=tmp)
    np.negative(tmp, out=tmp)
    tmp /= ws.m
    np.multiply(f_eps(u, eps), params.delta, out=nn)
    nn *= w
    nn += tmp

    # ---- implicit-diffusion u solve
    if sbdf2:
        np.multiply(u, 4.0, out=un)  # (4 u - hu) / (2 dt) + 2 nn - hnu
        un -= ws.hu
        un /= 2.0 * dt
        np.multiply(nn, 2.0, out=tmp)
        un += tmp
        un -= ws.hnu
    else:
        np.multiply(u, c0, out=un)
        un += nn
    np.multiply(csum, D_u, out=diag)  # c0 + D_u (cl + cr)
    diag += c0
    solve_tridiag(cl, cr, diag, un, D_u, work[2:4])
    if np.minimum.reduce(un) <= U_FLOOR:
        return "u", int(np.argmax(un <= U_FLOOR))
    return None


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
